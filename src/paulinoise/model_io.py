"""JSON document codecs and the stochastic-simulator export.

All documents are JSON objects carrying ``format_version`` (currently 1) and
a ``kind`` discriminator. Floats are written with Python's shortest
round-trip representation, so write-then-read reproduces every IEEE-754
double exactly.

operator / superoperator / coefficient matrix document::

    {"format_version": 1, "kind": "operator", "dim": 2,
     "data": [[re, im], ...],        # row-major; dim^2 pairs ("superoperator": dim^4)
     "meta": {"generator": "ez"}}    # optional string map

A ``"coefficient_matrix"`` document holds ``"n"``, at most
``DEFAULT_SUPEROP_MAX_QUBITS``, in place of ``"dim"`` and the ``16^n`` pairs
of the Pauli-pair matrix in label index order. One writer and one reader
serve all three matrix documents.

unitary ensemble document::

    {"format_version": 1, "kind": "unitary_ensemble", "dim": 2,
     "members": [{"weight": 0.5, "data": [[re, im], ...]}, ...],
     "meta": {}}

noise model document::

    {"format_version": 1, "kind": "pauli_noise_model", "n": 1,
     "entries": [{"label": "I", "probability": 0.99}, ...],
     "leakage_weight": 0.0,
     "truncated_weight": 0.0,
     "diagnostics": {"identity_prob": 0.99,
                     "coherent_residual_sq": null,
                     "distance_to_source": null},
     "provenance": {...}}            # optional

Model entries are sorted by descending probability (ties by label index) and
entries below the writer's probability floor are dropped, with the dropped
mass recorded in ``truncated_weight`` so the budget still closes. Every
document written by this module reads back in the writer's mode, and a read
model keeps its ``truncated_weight``, so writing it again gives the same text.
Readers only decode the structure and finite JSON numbers: the type a number
is read into (:class:`PauliNoiseModel`, :class:`EnsembleMember`) judges its
range, and a refusal is re-raised as ``ModelFormatError`` naming the file.

Every reader decodes and converts its document with the cyclic garbage
collector paused. An n = 4 superoperator file decodes into 65 536 small
lists, enough to set off many collections that each walk the live tree, yet a
JSON tree holds no reference cycles: reference counting frees all of it, and
the collector could never reclaim any of it. A reader returns only arrays and
dataclasses, so the tree is freed before the collector resumes, and the
collector is turned back on only if it was on when the read began. The pause
is process-wide: other threads see the collector off while any read runs, and
concurrent reads share one pause, which ends with the last of them.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ModelFormatError, PhysicalityError
from .extraction import ModelDiagnostics, PauliNoiseModel
from .generators import EnsembleMember
from .paulis import (
    DEFAULT_SUPEROP_MAX_QUBITS,
    MAX_MODEL_QUBITS,
    PAULI_ALPHABET,
    label_to_index,
    pauli_labels,
)
# pauli_basis is unused here but stays importable from this module, because
# the traced benchmark run (bench/tracing.py) rebinds model_io.pauli_basis.
from .paulis import pauli_basis  # noqa: F401

FORMAT_VERSION = 1

#: Probabilities below this default floor are dropped from written models.
DEFAULT_PROBABILITY_FLOOR = 1e-12

KIND_OPERATOR = "operator"
KIND_SUPEROPERATOR = "superoperator"
KIND_ENSEMBLE = "unitary_ensemble"
KIND_MODEL = "pauli_noise_model"
KIND_COEFFICIENTS = "coefficient_matrix"

#: JSON numbers parse to exactly these types; ``bool`` is not one of them.
_NUMBER_TYPES = (int, float)


@dataclass(frozen=True)
class MatrixDocument:
    """A parsed operator, superoperator or coefficient matrix file."""

    kind: str
    matrix: np.ndarray
    meta: dict[str, str]


def _fail(path: str | Path | None, message: str) -> ModelFormatError:
    prefix = f"{path}: " if path is not None else ""
    return ModelFormatError(prefix + message)


#: Characters of an offending input string that an error message echoes.
_ECHO_CHARS = 40


def _echo(text: str) -> str:
    """``repr`` of ``text`` for an error message: cut to its first
    ``_ECHO_CHARS`` characters and its length when it is longer, so that a
    message stays short whatever the input."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


class _CollectorPause(contextlib.ContextDecorator):
    """Disables the cyclic garbage collector while any read runs, and enables
    it again when the last read ends only if it was enabled when the first
    began.

    The collector setting belongs to the process, so concurrent reads share
    one pause, counted under a lock: a read that tested the setting and then
    disabled it in two steps could otherwise see the pause of another read
    and leave the collector off for good. Readers use it as a decorator, so
    that the reader's frame, and with it every reference to the parsed JSON
    tree, is gone before the collector resumes; a collection after that
    point finds none of the tree."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reads = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if not self._reads:
                self._resume = gc.isenabled()
                gc.disable()
            self._reads += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._reads -= 1
            if not self._reads and self._resume:
                gc.enable()


_collector_paused = _CollectorPause()


def _reject_nonfinite_constant(token: str) -> float:
    raise ValueError(f"non-finite constant {token!r} is not allowed")


def _load_document(path: str | Path, kinds: tuple[str, ...]) -> tuple[dict[str, Any], str]:
    """The one entry of every reader: the JSON object in the file at
    ``path``, checked to carry this module's ``format_version`` and one of
    ``kinds``, and that kind. The file is decoded as UTF-8, the encoding of
    JSON, whatever the locale."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _fail(path, f"cannot read file ({exc})") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _fail(path, f"invalid UTF-8 ({exc})") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_nonfinite_constant)
    except (ValueError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the decoder goes.
        raise _fail(path, f"invalid JSON ({exc})") from exc
    _require(isinstance(doc, dict), path, "document root must be a JSON object")
    _require(
        doc.get("format_version") == FORMAT_VERSION,
        path,
        f"unsupported format_version {doc.get('format_version')!r}, expected {FORMAT_VERSION}",
    )
    kind = doc.get("kind")
    _require(isinstance(kind, str), path, "'kind' must be a string")
    _require(
        kind in kinds,
        path,
        f"expected a {' or '.join(map(repr, kinds))} document, found {kind!r}",
    )
    return doc, kind


#: Row layouts for :func:`dump_json`: the brackets around one row and the
#: text of each of its fields, with ``%`` where the value goes.
_PAIR_ROW = ("[]", ("%r", "%r"))
_ENTRY_ROW = ("{}", ('"label": "%s"', '"probability": %r'))


def dump_json(
    path: str | Path | None,
    document: dict[str, Any],
    *,
    key: str = "",
    depth: int = 1,
    row: tuple[str, tuple[str, ...]] = _PAIR_ROW,
    blocks: Sequence[list[Any]] = (),
) -> str:
    """The one writer of JSON text: ``document`` with sorted keys and an
    indent of two, written to ``path`` unless that is ``None``, and returned.

    A document's large arrays come as ``blocks`` rather than as lists of
    Python objects, so that no row passes through the pure-Python encoder
    that ``json.dumps`` falls back to when it indents. Every ``key`` at
    nesting ``depth`` holds ``[]`` in ``document``, and the i-th of them is
    written with the rows of ``blocks[i]``, a flat list that gives ``row``'s
    fields their values row after row. ``%r`` of a float is the text
    ``json`` writes for it, so the text is that of ``json.dumps`` with the
    arrays in place. Block values must be finite, as ``allow_nan=False``
    makes the rest of the document: matrix writers check theirs, and a
    model's probabilities are finite by construction.
    """
    try:
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise _fail(path, f"document contains non-finite numbers ({exc})") from exc
    if blocks:
        # JSON strings hold no raw newline, so a newline followed by exactly
        # 2 * depth spaces and the quoted key starts a key at ``depth``.
        head = "\n" + "  " * depth + json.dumps(key) + ": "
        parts = text.split(head + "[]")
        brackets, fields = row
        inner = "\n" + "  " * (depth + 1)
        field_sep = "," + inner + "  "
        template = brackets[0] + inner + "  " + field_sep.join(fields) + inner + brackets[1]
        arrays = [
            "[" + inner + ("," + inner).join([template] * (len(values) // len(fields)))
            % tuple(values) + "\n" + "  " * depth + "]"
            if values
            else "[]"
            for values in blocks
        ]
        text = parts[0] + "".join(
            head + array + part for array, part in zip(arrays, parts[1:], strict=True)
        )
    if path is not None:
        Path(path).write_text(text)
    return text


def _require(condition: bool, path: str | Path | None, message: str) -> None:
    if not condition:
        raise _fail(path, message)


def _int_field(
    value: Any, key: str, path: str | Path | None, low: int, high: int | None = None
) -> int:
    """``value`` of the size field ``key`` if it is an integer (not a bool)
    in ``[low, high]``, or ``>= low`` when ``high`` is ``None``."""
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    _require(
        type(value) is int and value >= low and (high is None or value <= high),
        path,
        f"{key!r} must be an integer {bound}, got {value!r}",
    )
    return value


def _number_field(value: Any, name: str, path: str | Path | None) -> float:
    """``value`` of the field ``name`` as a float if it is a finite JSON
    number; its range is for the type it is read into to judge."""
    number = _finite_number(value)
    _require(number is not None, path, f"{name!r} must be a finite number, got {value!r}")
    return number


def _pair_values(matrix: np.ndarray) -> list[float]:
    """Real and imaginary parts of ``matrix``'s entries, row-major and
    interleaved: the values of its ``data`` rows."""
    flat = np.ascontiguousarray(matrix, dtype=complex).reshape(-1)
    if not np.isfinite(flat).all():
        raise ModelFormatError("matrix contains non-finite entries")
    return flat.view(float).tolist()


def _finite_number(value: Any) -> float | None:
    """``value`` as a float if it is a JSON number (not a bool) whose double is
    finite, else ``None``. Integers too large for a double count as
    non-finite."""
    if type(value) not in _NUMBER_TYPES:
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _pairs_to_matrix(
    pairs: Any, rows: int, path: str | Path | None, size_key: str
) -> np.ndarray:
    """``rows x rows`` complex matrix from ``data`` pairs; ``size_key`` names
    the header field that set ``rows``."""
    _require(isinstance(pairs, list), path, "'data' must be a list of [re, im] pairs")
    expected = rows * rows
    # A size field of hundreds of digits must not reach int-to-string
    # conversion; no list in memory has 2**63 entries.
    _require(
        len(pairs) == expected,
        path,
        f"'data' has {len(pairs)} entries, expected {expected}"
        if expected < 2**63
        else f"'data' has {len(pairs)} entries, far fewer than {size_key!r} declares",
    )
    # One pass over the entry and item types, one conversion and one
    # finiteness test; the per-entry loop below runs only to name the first
    # bad entry.
    values = None
    if set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}:
        # numpy converts a flat list of floats faster than a list of pairs.
        flat = list(itertools.chain.from_iterable(pairs))
        if set(map(type, flat)) <= set(_NUMBER_TYPES):
            try:
                values = np.array(flat, dtype=float)
            except OverflowError:
                pass
    if values is None or not np.isfinite(values).all():
        for i, pair in enumerate(pairs):
            _require(
                type(pair) is list
                and len(pair) == 2
                and all(type(x) in _NUMBER_TYPES for x in pair),
                path,
                f"'data[{i}]' is not a [re, im] number pair",
            )
            _require(
                all(_finite_number(x) is not None for x in pair),
                path,
                f"'data[{i}]' contains a non-finite value",
            )
    # Each [re, im] pair of the flat float array is one complex double.
    return values.view(complex).reshape(rows, rows)


def _check_meta(meta: Any, path: str | Path | None) -> dict[str, str]:
    if meta is None:
        return {}
    _require(isinstance(meta, dict), path, "'meta' must be an object")
    for key, value in meta.items():
        _require(
            isinstance(key, str) and isinstance(value, str),
            path,
            "'meta' must map strings to strings",
        )
    return dict(meta)


#: The one sizing rule of each matrix document: its size field, the bounds
#: of that field (no cap when ``None``), the matrix side for a field value,
#: the field value for a side, and the rule in words. A coefficient matrix is
#: held to the channel route's cap, under which one is written.
_SIZINGS: dict[str, tuple[str, int, int | None, Callable, Callable, str]] = {
    KIND_OPERATOR: ("dim", 2, None, lambda dim: dim, lambda side: side, "dim"),
    KIND_SUPEROPERATOR: ("dim", 2, None, lambda dim: dim * dim, math.isqrt, "dim**2"),
    KIND_COEFFICIENTS: (
        "n", 1, DEFAULT_SUPEROP_MAX_QUBITS,
        lambda n: 4**n, lambda side: side.bit_length() // 2, "4**n",
    ),
}


def _write_matrix(
    path: str | Path | None, matrix: np.ndarray, kind: str, meta: dict[str, str] | None
) -> str:
    """The one writer of operator, superoperator and coefficient documents."""
    key, low, high, side_of, field_of, rule = _SIZINGS[kind]
    matrix = np.asarray(matrix, dtype=complex)
    side = matrix.shape[0] if matrix.ndim == 2 else 0
    value = field_of(side)
    if matrix.shape != (side, side) or side_of(value) != side:
        raise ModelFormatError(
            f"a {kind!r} document needs a square matrix with a side of {rule},"
            f" got shape {matrix.shape}"
        )
    document = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        key: _int_field(value, key, path, low, high),
        "data": [],
        "meta": _check_meta(meta, path),
    }
    return dump_json(path, document, key="data", blocks=[_pair_values(matrix)])


@_collector_paused
def _read_matrix(path: str | Path, kinds: tuple[str, ...]) -> MatrixDocument:
    """The one reader of operator, superoperator and coefficient documents;
    the document must be of one of ``kinds``."""
    doc, kind = _load_document(path, kinds)
    key, low, high, side_of, _, _ = _SIZINGS[kind]
    side = side_of(_int_field(doc.get(key), key, path, low, high))
    matrix = _pairs_to_matrix(doc.get("data"), side, path, key)
    return MatrixDocument(kind=kind, matrix=matrix, meta=_check_meta(doc.get("meta"), path))


def write_matrix_file(
    path: str | Path | None,
    matrix: np.ndarray,
    kind: str,
    meta: dict[str, str] | None = None,
) -> str:
    """Write an operator or superoperator document; returns the JSON text."""
    if kind not in (KIND_OPERATOR, KIND_SUPEROPERATOR):
        raise ModelFormatError(
            f"kind must be {KIND_OPERATOR!r} or {KIND_SUPEROPERATOR!r}, got {kind!r}"
        )
    return _write_matrix(path, matrix, kind, meta)


def read_matrix_file(path: str | Path) -> MatrixDocument:
    """Read an operator or superoperator document written by this module."""
    # Not a coefficient matrix: a caller would take it for an operator.
    return _read_matrix(path, (KIND_OPERATOR, KIND_SUPEROPERATOR))


def write_ensemble_file(
    path: str | Path | None,
    members: Sequence[EnsembleMember],
    meta: dict[str, str] | None = None,
) -> str:
    """Write a weighted unitary ensemble as one self-contained document."""
    members = list(members)
    if not members:
        raise ModelFormatError("ensemble has no members")
    dims = {m.unitary.shape[0] for m in members}
    if len(dims) != 1:
        raise ModelFormatError(f"ensemble members act on different dimensions: {sorted(dims)}")
    rows, blocks = [], []
    for m in members:
        rows.append({"weight": float(m.weight), "data": []})
        blocks.append(_pair_values(m.unitary))
    document = {
        "format_version": FORMAT_VERSION,
        "kind": KIND_ENSEMBLE,
        "dim": _int_field(dims.pop(), "dim", path, 2),
        "members": rows,
        "meta": _check_meta(meta, path),
    }
    # Each member's "data" key sits at depth 3: document, "members", member.
    return dump_json(path, document, key="data", depth=3, blocks=blocks)


@_collector_paused
def read_ensemble_file(path: str | Path) -> list[EnsembleMember]:
    """Read a weighted unitary ensemble document; :class:`EnsembleMember`
    judges each weight's range."""
    doc, _ = _load_document(path, (KIND_ENSEMBLE,))
    dim = _int_field(doc.get("dim"), "dim", path, 2)
    raw_members = doc.get("members")
    _require(
        isinstance(raw_members, list) and len(raw_members) > 0,
        path,
        "'members' must be a non-empty list",
    )
    members = []
    for i, raw in enumerate(raw_members):
        _require(isinstance(raw, dict), path, f"'members[{i}]' must be an object")
        weight = _number_field(raw.get("weight"), f"members[{i}].weight", path)
        matrix = _pairs_to_matrix(raw.get("data"), dim, path, "dim")
        try:
            members.append(EnsembleMember(weight=weight, unitary=matrix))
        except ValueError as exc:
            raise _fail(path, f"'members[{i}]': {exc}") from exc
    return members


def write_coefficient_file(
    path: str | Path | None,
    weights: np.ndarray,
    meta: dict[str, str] | None = None,
) -> str:
    """Write a full Pauli-pair coefficient matrix (row-major, index order)."""
    return _write_matrix(path, weights, KIND_COEFFICIENTS, meta)


def read_coefficient_file(path: str | Path) -> np.ndarray:
    """Read a coefficient matrix document back into a complex array; ``n`` is
    held to ``DEFAULT_SUPEROP_MAX_QUBITS``, the cap under which one is written."""
    return _read_matrix(path, (KIND_COEFFICIENTS,)).matrix


def _model_document(
    model: PauliNoiseModel, floor: float, provenance: dict[str, Any] | None, strict: bool
) -> tuple[dict[str, Any], list[str], np.ndarray]:
    """The one builder of a model document: the document with ``"entries":
    []``, and the labels and probabilities of its entries, in entry order."""
    if floor < 0.0 or not math.isfinite(floor):
        raise ValueError(f"probability floor must be finite and >= 0, got {floor!r}")
    if strict:
        model.validate()
    probs = model.probs
    keep = (probs >= floor) & (probs > 0.0)
    # The dropped mass is added to the model's own truncated weight one entry
    # at a time in index order, so the written value does not depend on how
    # a vector sum would group the terms; exact zeros add nothing.
    truncated = float(model.truncated_weight)
    for prob in probs[~keep & (probs != 0.0)].tolist():
        truncated += prob
    kept = np.flatnonzero(keep)
    kept = kept[np.lexsort((kept, -probs[kept]))]
    document: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": KIND_MODEL,
        "n": model.n,
        "entries": [],
        "leakage_weight": float(model.leakage_weight),
        "truncated_weight": truncated,
        "diagnostics": {
            "identity_prob": float(model.diagnostics.identity_prob),
            "coherent_residual_sq": model.diagnostics.coherent_residual_sq,
            "distance_to_source": model.diagnostics.distance_to_source,
        },
    }
    if provenance is not None:
        document["provenance"] = provenance
    return document, pauli_labels(kept, model.n), probs[kept]


def model_to_document(
    model: PauliNoiseModel,
    *,
    floor: float = DEFAULT_PROBABILITY_FLOOR,
    provenance: dict[str, Any] | None = None,
    strict: bool = True,
) -> dict[str, Any]:
    """Build the JSON document for a model without touching the filesystem."""
    document, labels, probs = _model_document(model, floor, provenance, strict)
    document["entries"] = [
        {"label": label, "probability": prob} for label, prob in zip(labels, probs.tolist())
    ]
    return document


def write_model(
    path: str | Path | None,
    model: PauliNoiseModel,
    *,
    floor: float = DEFAULT_PROBABILITY_FLOOR,
    provenance: dict[str, Any] | None = None,
    strict: bool = True,
) -> str:
    """Write a noise model document; returns the JSON text. A model's
    numbers are in range by construction, so its entries need no check;
    ``strict`` checks its budget with :meth:`PauliNoiseModel.validate`."""
    document, labels, probs = _model_document(model, floor, provenance, strict)
    values: list[Any] = [None] * (2 * len(labels))
    values[0::2] = labels
    values[1::2] = probs.tolist()
    return dump_json(path, document, key="entries", row=_ENTRY_ROW, blocks=[values])


@_collector_paused
def read_model(path: str | Path, *, strict: bool = True) -> PauliNoiseModel:
    """Read a noise model document that :func:`write_model` wrote in the
    same mode.

    :class:`PauliNoiseModel` judges the ranges of the numbers read, and
    ``strict`` additionally checks the model with
    :meth:`PauliNoiseModel.validate`, the budget rule of the strict writer.
    Either refusal raises ``ModelFormatError`` naming the file.
    """
    doc, _ = _load_document(path, (KIND_MODEL,))
    n = _int_field(doc.get("n"), "n", path, 1, MAX_MODEL_QUBITS)
    entries = doc.get("entries")
    _require(isinstance(entries, list), path, "'entries' must be a list")
    by_index: dict[int, float] = {}
    for i, raw in enumerate(entries):
        _require(isinstance(raw, dict), path, f"'entries[{i}]' must be an object")
        label = raw.get("label")
        _require(isinstance(label, str), path, f"'entries[{i}].label' must be a string")
        try:
            index = label_to_index(label)
        except ValueError as exc:
            raise _fail(path, f"'entries[{i}].label': {exc}") from exc
        _require(
            len(label) == n,
            path,
            f"'entries[{i}].label' {label!r} does not have {n} characters",
        )
        _require(
            index not in by_index,
            path,
            f"'entries[{i}].label' {label!r} appears more than once",
        )
        by_index[index] = _number_field(raw.get("probability"), f"entries[{i}].probability", path)
    leakage = _number_field(doc.get("leakage_weight", 0.0), "leakage_weight", path)
    truncated = _number_field(doc.get("truncated_weight", 0.0), "truncated_weight", path)
    diag_raw = doc.get("diagnostics")
    _require(isinstance(diag_raw, dict), path, "'diagnostics' must be an object")

    def _optional_float(key: str) -> float | None:
        value = diag_raw.get(key)
        return None if value is None else _number_field(value, f"diagnostics.{key}", path)

    diagnostics = ModelDiagnostics(
        identity_prob=_number_field(
            diag_raw.get("identity_prob"), "diagnostics.identity_prob", path
        ),
        coherent_residual_sq=_optional_float("coherent_residual_sq"),
        distance_to_source=_optional_float("distance_to_source"),
    )
    probs = np.zeros(4**n)
    probs[list(by_index)] = list(by_index.values())
    try:
        model = PauliNoiseModel(
            n, probs, leakage_weight=leakage, truncated_weight=truncated, diagnostics=diagnostics
        )
        if strict:
            model.validate()
    except (ValueError, PhysicalityError) as exc:
        raise _fail(path, str(exc)) from exc
    return model


def _target_table(first: int, count: int) -> list[str]:
    """The chain targets of every string on qubits ``first .. first + count
    - 1``, in index order, each target led by a space (``" X3 Z4"``)."""
    choices = [
        [""] + [f" {ch}{q}" for ch in PAULI_ALPHABET[1:]] for q in range(first, first + count)
    ]
    return ["".join(targets) for targets in itertools.product(*choices)]


def export_stim_chain(model: PauliNoiseModel) -> str:
    """Render a model as a chain of disjoint correlated-error instructions.

    The first line is ``CORRELATED_ERROR(p)`` and every later line
    ``ELSE_CORRELATED_ERROR(p_k / (1 - sum_{j<k} p_j))``; executing the lines
    in order realizes each Pauli string with exactly its unconditional model
    probability, and at most one line fires per shot. The identity entry is
    deliberately omitted: absence of an instruction is the no-error outcome.
    A fully stochastic budget (non-identity probabilities summing to 1) is
    valid and makes the final conditional probability 1.
    """
    # Positive non-identity entries (the identity string is index 0) in
    # canonical index order.
    kept = np.flatnonzero(model.probs[1:] > 0.0) + 1
    if not kept.size:
        return ""
    probs = model.probs[kept]
    # cumsum adds in order, as a running Python sum would, so each prefix
    # sum_{j<k} p_j is the same double.
    with np.errstate(all="ignore"):
        denominator = 1.0 - np.concatenate(([0.0], np.cumsum(probs[:-1])))
        conditional = np.where(
            denominator <= 1e-15, 1.0, np.minimum(probs / denominator, 1.0)
        )
    # A line's targets are those of the high qubits of its string, then those
    # of the low ones, each looked up by that half of the index.
    low = model.n // 2
    high_table = _target_table(0, model.n - low)
    low_table = _target_table(model.n - low, low)
    values: list[Any] = [None] * (3 * kept.size)
    values[0::3] = conditional.tolist()
    values[1::3] = [high_table[i] for i in (kept >> (2 * low)).tolist()]
    values[2::3] = [low_table[i] for i in (kept & (4**low - 1)).tolist()]
    template = "CORRELATED_ERROR(%r)%s%s\n" + "ELSE_CORRELATED_ERROR(%r)%s%s\n" * (
        kept.size - 1
    )
    return template % tuple(values)


def chain_to_probabilities(text: str, n: int) -> dict[str, float]:
    """Invert :func:`export_stim_chain`.

    Parses the instruction lines and recovers the unconditional probability
    of each Pauli string via ``p_k = p'_k * prod_{j<k} (1 - p'_j)``.
    """
    probabilities: dict[str, float] = {}
    remaining = 1.0
    lines = [line for line in text.splitlines() if line.strip()]
    for k, line in enumerate(lines):
        expected = "CORRELATED_ERROR" if k == 0 else "ELSE_CORRELATED_ERROR"
        if not line.startswith(expected + "("):
            raise ModelFormatError(
                f"chain line {k + 1} must start with {expected}(, got {_echo(line)}"
            )
        close = line.find(")")
        if close < 0:
            raise ModelFormatError(f"chain line {k + 1} has no closing parenthesis")
        try:
            conditional = float(line[len(expected) + 1 : close])
        except ValueError as exc:
            raise ModelFormatError(f"chain line {k + 1} has a malformed probability") from exc
        if not 0.0 <= conditional <= 1.0:
            raise ModelFormatError(
                f"chain line {k + 1} probability {conditional!r} is outside [0, 1]"
            )
        chars = ["I"] * n
        for target in line[close + 1 :].split():
            pauli, qubit_text = target[0], target[1:]
            # ASCII digits only (str.isdigit admits "²"); a number with more
            # digits than n - 1 is out of range and never reaches int().
            if pauli not in "XYZ" or not (qubit_text.isascii() and qubit_text.isdigit()):
                raise ModelFormatError(f"chain line {k + 1} has malformed target {_echo(target)}")
            qubit = int(qubit_text) if len(qubit_text) <= len(str(n - 1)) else n
            if qubit >= n or chars[qubit] != "I":
                raise ModelFormatError(
                    f"chain line {k + 1} target {_echo(target)} is out of range or repeated"
                )
            chars[qubit] = pauli
        label = "".join(chars)
        if label == "I" * n:
            raise ModelFormatError(f"chain line {k + 1} has no targets")
        if label in probabilities:
            raise ModelFormatError(f"Pauli string {label!r} appears on two chain lines")
        probabilities[label] = conditional * remaining
        remaining *= 1.0 - conditional
    return probabilities

"""JSON document codecs and the stochastic-simulator export.

All documents are JSON objects carrying ``format_version`` (currently 1) and
a ``kind`` discriminator. Floats are written with Python's shortest
round-trip representation, so write-then-read reproduces every IEEE-754
double exactly.

operator / superoperator document::

    {"format_version": 1, "kind": "operator", "dim": 2,
     "data": [[re, im], ...],        # row-major; dim^2 pairs ("superoperator": dim^4)
     "meta": {"generator": "ez"}}    # optional string map

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
document written by this module re-validates on read, and a read model keeps
its ``truncated_weight``, so writing it again gives the same text.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import DimensionError, ModelFormatError
from .extraction import ModelDiagnostics, PauliNoiseModel
from .generators import EnsembleMember
from .paulis import (
    DEFAULT_SUPEROP_MAX_QUBITS,
    DEFAULT_TOL,
    MAX_MODEL_QUBITS,
    label_to_index,
    pauli_labels,
    pauli_qubit_count,
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
    """A parsed operator or superoperator file."""

    kind: str
    matrix: np.ndarray
    meta: dict[str, str]


def _fail(path: str | Path | None, message: str) -> ModelFormatError:
    prefix = f"{path}: " if path is not None else ""
    return ModelFormatError(prefix + message)


def _reject_nonfinite_constant(token: str) -> float:
    raise ValueError(f"non-finite constant {token!r} is not allowed")


def _load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _fail(path, f"cannot read file ({exc})") from exc
    try:
        return json.loads(text, parse_constant=_reject_nonfinite_constant)
    except ValueError as exc:
        raise _fail(path, f"invalid JSON ({exc})") from exc


def dump_json(path: str | Path | None, document: dict[str, Any]) -> str:
    """Serialize ``document`` as sorted, indented JSON; write it to ``path``
    unless that is ``None``, and return the text."""
    try:
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise _fail(path, f"document contains non-finite numbers ({exc})") from exc
    if path is not None:
        Path(path).write_text(text)
    return text


def _require(condition: bool, path: str | Path | None, message: str) -> None:
    if not condition:
        raise _fail(path, message)


def _complex_pairs(matrix: np.ndarray) -> list[list[float]]:
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise ModelFormatError("matrix contains non-finite entries")
    return [[float(z.real), float(z.imag)] for z in flat]


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
    if (
        set(map(type, pairs)) == {list}
        and set(map(len, pairs)) == {2}
        and set(map(type, itertools.chain.from_iterable(pairs))) <= set(_NUMBER_TYPES)
    ):
        try:
            values = np.array(pairs, dtype=float)
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
    # Each row [re, im] of the C-ordered float array is one complex double.
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


def _check_header(doc: Any, expected_kind: str | None, path: str | Path | None) -> str:
    _require(isinstance(doc, dict), path, "document root must be a JSON object")
    _require(
        doc.get("format_version") == FORMAT_VERSION,
        path,
        f"unsupported format_version {doc.get('format_version')!r}, expected {FORMAT_VERSION}",
    )
    kind = doc.get("kind")
    _require(isinstance(kind, str), path, "'kind' must be a string")
    if expected_kind is not None:
        _require(
            kind == expected_kind,
            path,
            f"expected a {expected_kind!r} document, found {kind!r}",
        )
    return kind


def write_matrix_file(
    path: str | Path | None,
    matrix: np.ndarray,
    kind: str,
    meta: dict[str, str] | None = None,
) -> str:
    """Write an operator or superoperator document; returns the JSON text."""
    matrix = np.asarray(matrix, dtype=complex)
    if kind == KIND_OPERATOR:
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 2:
            raise ModelFormatError(f"operator must be square (>= 2), got {matrix.shape}")
        dim = matrix.shape[0]
    elif kind == KIND_SUPEROPERATOR:
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ModelFormatError(f"superoperator must be square, got {matrix.shape}")
        dim = int(round(math.sqrt(matrix.shape[0])))
        if dim * dim != matrix.shape[0] or dim < 2:
            raise ModelFormatError(
                f"superoperator dimension {matrix.shape[0]} is not a square of an"
                " operator dimension"
            )
    else:
        raise ModelFormatError(
            f"kind must be {KIND_OPERATOR!r} or {KIND_SUPEROPERATOR!r}, got {kind!r}"
        )
    document = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "dim": dim,
        "data": _complex_pairs(matrix),
        "meta": _check_meta(meta, path),
    }
    return dump_json(path, document)


def read_matrix_file(path: str | Path) -> MatrixDocument:
    """Read an operator or superoperator document written by this module."""
    doc = _load_json(path)
    kind = _check_header(doc, None, path)
    _require(
        kind in (KIND_OPERATOR, KIND_SUPEROPERATOR),
        path,
        f"expected an operator or superoperator document, found kind {kind!r}",
    )
    dim = doc.get("dim")
    _require(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 2,
        path,
        f"'dim' must be an integer >= 2, got {dim!r}",
    )
    rows = dim if kind == KIND_OPERATOR else dim * dim
    matrix = _pairs_to_matrix(doc.get("data"), rows, path, "dim")
    return MatrixDocument(kind=kind, matrix=matrix, meta=_check_meta(doc.get("meta"), path))


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
    document = {
        "format_version": FORMAT_VERSION,
        "kind": KIND_ENSEMBLE,
        "dim": dims.pop(),
        "members": [
            {"weight": float(m.weight), "data": _complex_pairs(m.unitary)}
            for m in members
        ],
        "meta": _check_meta(meta, path),
    }
    return dump_json(path, document)


def read_ensemble_file(path: str | Path) -> list[EnsembleMember]:
    """Read a weighted unitary ensemble document."""
    doc = _load_json(path)
    _check_header(doc, KIND_ENSEMBLE, path)
    dim = doc.get("dim")
    _require(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 2,
        path,
        f"'dim' must be an integer >= 2, got {dim!r}",
    )
    raw_members = doc.get("members")
    _require(
        isinstance(raw_members, list) and len(raw_members) > 0,
        path,
        "'members' must be a non-empty list",
    )
    members = []
    for i, raw in enumerate(raw_members):
        _require(isinstance(raw, dict), path, f"'members[{i}]' must be an object")
        weight = _finite_number(raw.get("weight"))
        _require(
            weight is not None and weight >= 0.0,
            path,
            f"'members[{i}].weight' must be a nonnegative number, got {raw.get('weight')!r}",
        )
        matrix = _pairs_to_matrix(raw.get("data"), dim, path, "dim")
        members.append(EnsembleMember(weight=weight, unitary=matrix))
    return members


def write_coefficient_file(
    path: str | Path | None,
    weights: np.ndarray,
    meta: dict[str, str] | None = None,
) -> str:
    """Write a full Pauli-pair coefficient matrix (row-major, index order)."""
    weights = np.asarray(weights, dtype=complex)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ModelFormatError(f"coefficient matrix must be square, got {weights.shape}")
    try:
        n = pauli_qubit_count(weights.shape[0])
    except DimensionError as exc:
        raise ModelFormatError(f"coefficient matrix side: {exc}") from exc
    document = {
        "format_version": FORMAT_VERSION,
        "kind": KIND_COEFFICIENTS,
        "n": n,
        "data": _complex_pairs(weights),
        "meta": _check_meta(meta, path),
    }
    return dump_json(path, document)


def read_coefficient_file(path: str | Path) -> np.ndarray:
    """Read a coefficient matrix document back into a complex array; ``n`` is
    held to ``DEFAULT_SUPEROP_MAX_QUBITS``, the cap under which one is written."""
    doc = _load_json(path)
    _check_header(doc, KIND_COEFFICIENTS, path)
    n = doc.get("n")
    _require(
        isinstance(n, int)
        and not isinstance(n, bool)
        and 1 <= n <= DEFAULT_SUPEROP_MAX_QUBITS,
        path,
        f"'n' must be an integer in [1, {DEFAULT_SUPEROP_MAX_QUBITS}], got {n!r}",
    )
    return _pairs_to_matrix(doc.get("data"), 4**n, path, "n")


def model_to_document(
    model: PauliNoiseModel,
    *,
    floor: float = DEFAULT_PROBABILITY_FLOOR,
    provenance: dict[str, Any] | None = None,
    strict: bool = True,
) -> dict[str, Any]:
    """Build the JSON document for a model without touching the filesystem."""
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
    entries = zip(pauli_labels(kept, model.n), probs[kept].tolist())
    document: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": KIND_MODEL,
        "n": model.n,
        "entries": [{"label": label, "probability": prob} for label, prob in entries],
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
    return document


def write_model(
    path: str | Path | None,
    model: PauliNoiseModel,
    *,
    floor: float = DEFAULT_PROBABILITY_FLOOR,
    provenance: dict[str, Any] | None = None,
    strict: bool = True,
) -> str:
    """Write a noise model document; returns the JSON text."""
    document = model_to_document(
        model, floor=floor, provenance=provenance, strict=strict
    )
    return dump_json(path, document)


def read_model(path: str | Path, *, strict: bool = True) -> PauliNoiseModel:
    """Read a noise model document, re-validating all invariants.

    ``strict`` additionally enforces that kept probabilities, truncated
    weight, and leakage close the budget to 1 within ``DEFAULT_TOL``.
    """
    doc = _load_json(path)
    _check_header(doc, KIND_MODEL, path)
    n = doc.get("n")
    _require(
        isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= MAX_MODEL_QUBITS,
        path,
        f"'n' must be an integer in [1, {MAX_MODEL_QUBITS}], got {n!r}",
    )
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
        prob = _finite_number(raw.get("probability"))
        _require(
            prob is not None and 0.0 <= prob <= 1.0,
            path,
            f"'entries[{i}].probability' must be a number in [0, 1], "
            f"got {raw.get('probability')!r}",
        )
        by_index[index] = prob
    leakage = _finite_number(doc.get("leakage_weight", 0.0))
    _require(
        leakage is not None and 0.0 <= leakage <= 1.0,
        path,
        f"'leakage_weight' must be a number in [0, 1], got {doc.get('leakage_weight')!r}",
    )
    truncated = _finite_number(doc.get("truncated_weight", 0.0))
    _require(
        truncated is not None and truncated >= 0.0,
        path,
        "'truncated_weight' must be a nonnegative number, "
        f"got {doc.get('truncated_weight')!r}",
    )
    diag_raw = doc.get("diagnostics")
    _require(isinstance(diag_raw, dict), path, "'diagnostics' must be an object")

    def _optional_float(key: str) -> float | None:
        value = diag_raw.get(key)
        if value is None:
            return None
        number = _finite_number(value)
        _require(
            number is not None,
            path,
            f"'diagnostics.{key}' must be a finite number or null, got {value!r}",
        )
        return number

    identity_prob = _optional_float("identity_prob")
    _require(identity_prob is not None, path, "'diagnostics.identity_prob' is required")
    if strict:
        budget = sum(by_index.values()) + truncated + leakage
        _require(
            abs(budget - 1.0) <= DEFAULT_TOL,
            path,
            f"probabilities, truncated weight, and leakage sum to {budget!r}, not 1",
        )
    diagnostics = ModelDiagnostics(
        identity_prob=identity_prob,
        coherent_residual_sq=_optional_float("coherent_residual_sq"),
        distance_to_source=_optional_float("distance_to_source"),
    )
    probs = np.zeros(4**n)
    probs[list(by_index)] = list(by_index.values())
    return PauliNoiseModel(
        n=n,
        probs=probs,
        leakage_weight=leakage,
        truncated_weight=truncated,
        diagnostics=diagnostics,
    )


def _chain_entries(model: PauliNoiseModel) -> list[tuple[str, float]]:
    """Positive non-identity entries in canonical index order."""
    # The identity string is index 0.
    kept = np.flatnonzero(model.probs[1:] > 0.0) + 1
    return list(zip(pauli_labels(kept, model.n), model.probs[kept].tolist()))


def _chain_targets(label: str) -> str:
    return " ".join(f"{ch}{q}" for q, ch in enumerate(label) if ch != "I")


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
    entries = _chain_entries(model)
    lines = []
    prefix = 0.0
    for k, (label, prob) in enumerate(entries):
        denominator = 1.0 - prefix
        if denominator <= 1e-15:
            conditional = 1.0
        else:
            conditional = min(prob / denominator, 1.0)
        name = "CORRELATED_ERROR" if k == 0 else "ELSE_CORRELATED_ERROR"
        lines.append(f"{name}({conditional!r}) {_chain_targets(label)}")
        prefix += prob
    return "\n".join(lines) + ("\n" if lines else "")


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
                f"chain line {k + 1} must start with {expected}(, got {line!r}"
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
            if pauli not in "XYZ" or not qubit_text.isdigit():
                raise ModelFormatError(f"chain line {k + 1} has malformed target {target!r}")
            qubit = int(qubit_text)
            if qubit >= n or chars[qubit] != "I":
                raise ModelFormatError(
                    f"chain line {k + 1} target {target!r} is out of range or repeated"
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

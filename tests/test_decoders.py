"""The readers decode with orjson and fall back to the stdlib decoder.

Every reader runs first on orjson's tree, and runs again on the stdlib
decoder's tree when orjson refuses the document or the reader refuses its
tree; that second run decides. These tests hold the readers to the stdlib
path, which the forced fallback below reproduces: the same arrays bit for
bit for every document it accepts, and the same exception and message for
every document it refuses. They also check that no valid document reaches
the stdlib decoder, and that hand-written numbers decode exactly.
"""

from __future__ import annotations

import copy
import decimal
import json
import math
import random
import re
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulinoise import (
    EnsembleMember,
    ModelDiagnostics,
    PauliNoiseModel,
    lift_unitary,
    random_unitary,
    read_coefficient_file,
    read_ensemble_file,
    read_matrix_file,
    read_model,
    write_coefficient_file,
    write_ensemble_file,
    write_matrix_file,
    write_model,
)
from paulinoise.model_io import _UNREAD_DEPTH, KIND_OPERATOR, KIND_SUPEROPERATOR, MatrixDocument

READERS = {
    "matrix": read_matrix_file,
    "coefficients": read_coefficient_file,
    "ensemble": read_ensemble_file,
    "model": read_model,
}


def _refuse(data: bytes):
    raise orjson.JSONDecodeError("refused for the test", "", 0)


def _fail(*args, **kwargs):
    raise AssertionError("stdlib decoder reached")


def _forced_fallback():
    """orjson refuses every document, so every read takes the stdlib path."""
    return mock.patch.object(orjson, "loads", side_effect=_refuse)


def _stdlib_decode_fails():
    """Any call of the stdlib decoder fails the test."""
    return mock.patch.object(json, "loads", side_effect=_fail)


def _double_bits(value: float | None) -> bytes | None:
    return None if value is None else np.float64(value).tobytes()


def _bits(result) -> tuple:
    """What a reader returned, as values that compare equal only when every
    array and float is the same bit for bit."""
    if isinstance(result, MatrixDocument):
        return ("matrix", result.kind, _bits(result.matrix), list(result.meta.items()))
    if isinstance(result, np.ndarray):
        return (result.dtype.str, result.shape, result.tobytes())
    if isinstance(result, PauliNoiseModel):
        diagnostics = result.diagnostics
        return (
            "model",
            result.n,
            _bits(result.probs),
            _double_bits(result.leakage_weight),
            _double_bits(result.truncated_weight),
            _double_bits(diagnostics.identity_prob),
            _double_bits(diagnostics.coherent_residual_sq),
            _double_bits(diagnostics.distance_to_source),
        )
    return tuple((_double_bits(m.weight), _bits(m.unitary)) for m in result)


def _outcome(reader, path: Path) -> tuple:
    try:
        return ("read", _bits(reader(path)))
    except Exception as exc:  # the reference path decides which type
        return ("refused", type(exc), str(exc))


def _assert_matches_stdlib_path(path: Path) -> dict[str, tuple]:
    """Every reader gives the same outcome on ``path`` as with the fallback
    forced; returns the outcomes by reader."""
    outcomes = {}
    for name, reader in READERS.items():
        outcome = _outcome(reader, path)
        with _forced_fallback():
            reference = _outcome(reader, path)
        assert outcome == reference, name
        outcomes[name] = outcome
    return outcomes


# Small valid documents of every kind, as Python objects.

_IDENTITY_PAIRS = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def _base_documents() -> dict[str, dict]:
    """One small valid document of each kind; a model carries provenance."""
    lifted = lift_unitary(random_unitary(1, 5))
    pairs = [[z.real, z.imag] for z in lifted.ravel().tolist()]
    return {
        "operator": {
            "format_version": 1, "kind": "operator", "dim": 2,
            "data": [list(p) for p in _IDENTITY_PAIRS], "meta": {"generator": "ez"},
        },
        "superoperator": {
            "format_version": 1, "kind": "superoperator", "dim": 2,
            "data": [list(p) for p in pairs], "meta": {},
        },
        "coefficients": {
            "format_version": 1, "kind": "coefficient_matrix", "n": 1,
            "data": [list(p) for p in pairs], "meta": {},
        },
        "ensemble": {
            "format_version": 1, "kind": "unitary_ensemble", "dim": 2, "meta": {},
            "members": [
                {"weight": 0.5, "data": [list(p) for p in _IDENTITY_PAIRS]},
                {"weight": 0.5, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]},
            ],
        },
        "model": {
            "format_version": 1, "kind": "pauli_noise_model", "n": 1,
            "entries": [
                {"label": "I", "probability": 0.75},
                {"label": "Z", "probability": 0.25},
            ],
            "leakage_weight": 0.0, "truncated_weight": 0.0,
            "diagnostics": {
                "identity_prob": 0.75, "coherent_residual_sq": None, "distance_to_source": None,
            },
            "provenance": {"command": "extract", "inputs": ["u.json"]},
        },
    }


class Raw:
    """A JSON text that goes into a document as it is."""

    def __init__(self, text: str) -> None:
        self.text = text


def _text(document, layout: str) -> str:
    """``document`` as JSON text with each :class:`Raw` value in place."""
    raws: list[str] = []

    def placeholder(value):
        raws.append(value.text)
        return f"@raw{len(raws) - 1}@"

    def replace(value):
        if isinstance(value, Raw):
            return placeholder(value)
        if isinstance(value, dict):
            return {key: replace(item) for key, item in value.items()}
        if isinstance(value, list):
            return [replace(item) for item in value]
        return value

    if layout == "indent":
        text = json.dumps(replace(document), indent=2, sort_keys=True) + "\n"
    else:
        text = json.dumps(replace(document), separators=(",", ":"))
    for i, raw in enumerate(raws):
        text = text.replace(f'"@raw{i}@"', raw, 1)
    return text


def _deep(depth: int) -> Raw:
    return Raw("[" * depth + "]" * depth)


#: Literals where the two decoders part or come close: integers outside
#: [-2**63, 2**64), numbers beyond double range, lone surrogates, signed
#: zeros, exponents and the stdlib decoder's non-finite constants.
_LITERALS = [
    str(2**64), str(2**64 - 1), str(-(2**63) - 1), str(-(2**63)), "1" + "0" * 400,
    "1e400", "-1e400", "1e-400", "-1e-400", "-0", "-0.0", "0e0", "1E5", "2.5E-3",
    "NaN", "Infinity", "-Infinity", '"\\ud800"', '"\\udc00x"', '"\\ud83d\\ude00"',
    '"\\u0000"', '"X"', '"ZZ"', "2", "1", "0.5", "-1", "4", "16",
]

_KEYS = st.text(st.characters(blacklist_characters="@"), max_size=4)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(blacklist_characters="@"), max_size=4)
    | st.sampled_from(_LITERALS).map(Raw)
    | st.sampled_from([5, 99, 150, 5000]).map(_deep)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)

#: Places an edit may set or delete; a path that a document lacks is skipped.
_PLACES = [
    ("format_version",), ("kind",), ("dim",), ("n",), ("data",), ("data", 0),
    ("data", 0, 0), ("data", 1, 1), ("meta",), ("meta", "generator"), ("meta", "extra"),
    ("members",), ("members", 0), ("members", 0, "weight"), ("members", 1, "data", 0, 0),
    ("members", 0, "extra"), ("entries",), ("entries", 0, "label"),
    ("entries", 1, "probability"), ("entries", 0, "extra"), ("leakage_weight",),
    ("truncated_weight",), ("diagnostics",), ("diagnostics", "identity_prob"),
    ("diagnostics", "coherent_residual_sq"), ("diagnostics", "extra"), ("provenance",),
    ("extra",),
]

_DELETE = object()


_BASE = _base_documents()


def _document(kind: str) -> dict:
    return copy.deepcopy(_BASE[kind])


def _edit(document: dict, place: tuple, value) -> None:
    *head, last = place
    parent = document
    for step in head:
        try:
            parent = parent[step]
        except (KeyError, IndexError, TypeError):
            return
    if isinstance(parent, dict) and isinstance(last, str):
        parent.pop(last, None) if value is _DELETE else parent.__setitem__(last, value)
    elif isinstance(parent, list) and isinstance(last, int) and last < len(parent):
        parent.pop(last) if value is _DELETE else parent.__setitem__(last, value)


def _byte_edit(data: bytes, edit: str, at: float) -> bytes:
    cut = int(at * len(data))
    if edit == "bom":
        return b"\xef\xbb\xbf" + data
    if edit == "invalid-utf8":
        return data[:cut] + b"\xff" + data[cut:]
    if edit == "truncated":
        return data[:cut]
    if edit == "duplicate-first":
        # The later key wins, so a document stays valid.
        return b'{"format_version": 2, "kind": 7, ' + data.lstrip()[1:]
    if edit == "duplicate-last":
        end = data.rstrip().rfind(b"}")
        return data[:end] + b', "format_version": 2}'
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("decoders")


@settings(max_examples=250, deadline=None)
@given(
    kind=st.sampled_from(sorted(_BASE)),
    edits=st.lists(
        st.tuples(st.sampled_from(_PLACES), _VALUES | st.just(_DELETE)), max_size=3
    ),
    layout=st.sampled_from(["indent", "compact"]),
    byte_edit=st.sampled_from(
        ["none"] * 5 + ["bom", "invalid-utf8", "truncated", "duplicate-first", "duplicate-last"]
    ),
    at=st.floats(0.0, 1.0),
)
def test_every_reader_matches_the_stdlib_path(workdir, kind, edits, layout, byte_edit, at):
    document = _document(kind)
    for place, value in edits:
        _edit(document, place, value)
    path = workdir / "edited.json"
    path.write_bytes(_byte_edit(_text(document, layout).encode("utf-8"), byte_edit, at))
    _assert_matches_stdlib_path(path)


def _with(kind: str, place: tuple, value) -> str:
    """The base document of ``kind`` with ``value`` set at ``place``."""
    document = _document(kind)
    _edit(document, place, value)
    return _text(document, "indent")


BIG = Raw(str(2**64))

#: Documents where the decoders part, as (kind, place, value).
PINNED = {
    "dim=2**64": ("operator", ("dim",), BIG),
    "n=2**64": ("model", ("n",), BIG),
    "coefficient-n=2**64": ("coefficients", ("n",), BIG),
    "format_version=2**64": ("ensemble", ("format_version",), BIG),
    "data-entry=2**64": ("operator", ("data", 0, 0), BIG),
    "weight=2**64": ("ensemble", ("members", 0, "weight"), BIG),
    "data-entry=1e400": ("superoperator", ("data", 1, 1), Raw("1e400")),
    "data-entry=400-digits": ("operator", ("data", 0, 1), Raw("1" + "0" * 400)),
    "meta-lone-surrogate": ("operator", ("meta", "generator"), Raw('"\\ud800"')),
    "deep-meta": ("operator", ("meta", "generator"), _deep(5000)),
    # The ensemble reader does not read its "meta".
    "deep-ensemble-meta": ("ensemble", ("meta",), _deep(5000)),
    # Refusing these in orjson's tree formats the deep value, which recurses.
    "deep-dim": ("operator", ("dim",), _deep(5000)),
    "deep-weight": ("ensemble", ("members", 0, "weight"), _deep(5000)),
    "deep-provenance": ("model", ("provenance",), _deep(5000)),
    "deep-unknown-root-key": ("superoperator", ("extra",), _deep(5000)),
    "deep-entry-key": ("model", ("entries", 0, "extra"), _deep(5000)),
    "deep-member-key": ("ensemble", ("members", 1, "extra"), _deep(5000)),
    "deep-diagnostics-key": ("model", ("diagnostics", "extra"), _deep(5000)),
    "provenance-past-the-unread-bound": ("model", ("provenance",), _deep(_UNREAD_DEPTH + 50)),
}

#: The reader of each kind of base document.
_READER_OF = {
    "operator": "matrix", "superoperator": "matrix", "coefficients": "coefficients",
    "ensemble": "ensemble", "model": "model",
}


@pytest.mark.parametrize("case", list(PINNED))
def test_pinned_documents_match_the_stdlib_path(workdir, case):
    path = workdir / f"{case}.json"
    path.write_text(_with(*PINNED[case]))
    outcome = _assert_matches_stdlib_path(path)[_READER_OF[PINNED[case][0]]]
    if case == "dim=2**64":
        assert outcome[0] == "refused"
        assert outcome[2].endswith("'data' has 4 entries, far fewer than 'dim' declares")
    elif case == "meta-lone-surrogate":
        assert outcome[0] == "read"
        assert outcome[1][3] == [("generator", "\ud800")]
    elif case.startswith("deep-"):
        assert outcome[0] == "refused"
        assert re.search(r": invalid JSON \(maximum recursion depth exceeded", outcome[2])
    elif case == "provenance-past-the-unread-bound":
        assert outcome[0] == "read"


#: Byte-level edits of a valid operator document. The later of two equal
#: keys wins, so the first duplicate leaves the document valid.
ENCODINGS = {
    "bom": lambda text: b"\xef\xbb\xbf" + text,
    "invalid-utf8": lambda text: text.replace(b'"ez"', b'"e\xffz"'),
    "duplicate-key-first": lambda text: b'{"dim": 3, ' + text[1:],
    "duplicate-key-last": lambda text: text.rstrip()[:-1] + b', "dim": 3}',
}


@pytest.mark.parametrize("case", list(ENCODINGS))
def test_encodings_and_duplicate_keys_match_the_stdlib_path(workdir, case):
    path = workdir / f"{case}.json"
    path.write_bytes(ENCODINGS[case](_with("operator", ("extra",), None).encode("utf-8")))
    outcome = _assert_matches_stdlib_path(path)["matrix"]
    assert outcome[0] == ("read" if case == "duplicate-key-first" else "refused")


# Valid documents are read from orjson's tree alone.


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory) -> dict[str, list[Path]]:
    """Valid files per reader, as this module's writers and the benchmark
    write them (``json.dumps`` with an indent of two and sorted keys), and
    as compact text."""
    tmp = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(3)
    written = {name: tmp / f"{name}.json" for name in READERS}
    write_matrix_file(
        written["matrix"], lift_unitary(random_unitary(2, 3)), KIND_SUPEROPERATOR, {"g": "x"}
    )
    write_coefficient_file(
        written["coefficients"], rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    )
    write_ensemble_file(
        written["ensemble"], [EnsembleMember(1 / 3, random_unitary(2, 7 + k)) for k in range(3)]
    )
    probs = rng.dirichlet(np.ones(16))
    write_model(
        written["model"],
        PauliNoiseModel(n=2, probs=probs, diagnostics=ModelDiagnostics(float(probs[0]))),
        provenance={"command": "extract", "nested": json.loads("[" * 50 + "]" * 50)},
    )
    files: dict[str, list[Path]] = {}
    for name, path in written.items():
        document = json.loads(path.read_text())
        bench = tmp / f"{name}-bench.json"
        bench.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        compact = tmp / f"{name}-compact.json"
        compact.write_text(json.dumps(document, separators=(",", ":")))
        files[name] = [path, bench, compact]
    operator = tmp / "operator.json"
    write_matrix_file(operator, random_unitary(3, 4), KIND_OPERATOR)
    files["matrix"].append(operator)
    return files


@pytest.mark.parametrize("name", list(READERS))
def test_valid_documents_never_reach_the_stdlib_decoder(valid_files, name):
    reader = READERS[name]
    for path in valid_files[name]:
        with _forced_fallback():
            reference = _bits(reader(path))
        with _stdlib_decode_fails():
            assert _bits(reader(path)) == reference, path.name


# Hand-written numbers decode to the double that Python's float() gives.


def _halfway_decimals(rng: random.Random, count: int) -> list[str]:
    """Exact decimal texts of points halfway between two adjacent doubles,
    over normal and subnormal magnitudes."""
    texts = []
    with decimal.localcontext() as context:
        context.prec = 2000
        for _ in range(count):
            low = rng.choice([rng.uniform(1.0, 2.0), 5e-324 * rng.randrange(1, 1000)])
            low = math.ldexp(low, rng.randrange(-60, 60)) if low >= 1.0 else low
            high = math.nextafter(low, math.inf)
            middle = (decimal.Decimal(low) + decimal.Decimal(high)) / 2
            texts.append(("-" if rng.random() < 0.5 else "") + str(middle))
    return texts


def _number_literals() -> list[str]:
    rng = random.Random(20231115)
    digits = "0123456789"
    integers = [
        rng.choice(["", "-"])
        + rng.choice(digits[1:])
        + "".join(rng.choice(digits) for _ in range(length - 1))
        for length in range(1, 309)
    ]
    mantissas = []
    for length in range(17, 26):
        for _ in range(4):
            body = rng.choice(digits[1:]) + "".join(rng.choice(digits) for _ in range(length - 1))
            point = rng.randrange(1, length)
            mantissas.append(f"{body[:point]}.{body[point:]}e{rng.randrange(-330, 300)}")
            mantissas.append(f"-0.{body}")
    return [*integers, "1E5", "-0", "0e0", "-1e-400", *mantissas, *_halfway_decimals(rng, 60)]


def _is_integer_literal(text: str) -> bool:
    return re.fullmatch(r"-?[0-9]+", text) is not None


def test_hand_written_numbers_decode_exactly(tmp_path):
    literals = _number_literals()
    assert any(len(text.lstrip("-")) == 308 for text in literals)
    side = math.isqrt(math.ceil(len(literals) / 2) - 1) + 1
    literals += ["0"] * (2 * side * side - len(literals))
    pairs = ", ".join(f"[{real}, {imag}]" for real, imag in zip(literals[0::2], literals[1::2]))
    path = tmp_path / "numbers.json"
    path.write_text(
        f'{{"format_version": 1, "kind": "operator", "dim": {side}, "data": [{pairs}]}}'
    )
    expected = np.array(
        [float(int(text)) if _is_integer_literal(text) else float(text) for text in literals]
    )
    with _stdlib_decode_fails():
        decoded = read_matrix_file(path).matrix
    with _forced_fallback():
        reference = read_matrix_file(path).matrix
    for matrix in (decoded, reference):
        values = matrix.view(float).ravel()
        mismatch = np.flatnonzero(values.view(np.uint64) != expected.view(np.uint64))
        assert not mismatch.size, [literals[i] for i in mismatch[:5]]


def test_unread_values_past_the_bound_take_the_stdlib_path(tmp_path):
    shallow, deep = tmp_path / "shallow.json", tmp_path / "deep.json"
    shallow.write_text(_with("model", ("provenance",), _deep(_UNREAD_DEPTH // 2)))
    deep.write_text(_with("model", ("provenance",), _deep(_UNREAD_DEPTH + 50)))
    with _stdlib_decode_fails():
        read_model(shallow)
        with pytest.raises(AssertionError, match="stdlib decoder reached"):
            read_model(deep)
    # Nested far less than the stdlib decoder goes, so that path accepts it.
    assert _bits(read_model(deep)) == _bits(read_model(shallow))

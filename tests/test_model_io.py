"""JSON document round-trips, validation, and correlated-error chain export."""

from __future__ import annotations

import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import paulinoise
from paulinoise import (
    EnsembleMember,
    ModelDiagnostics,
    ModelFormatError,
    PauliNoiseModel,
    PhysicalityError,
    coefficient_matrix,
    chain_to_probabilities,
    export_stim_chain,
    extract_from_unitary,
    lift_unitary,
    nearest_pauli_channel,
    pauli_basis,
    random_unitary,
    read_coefficient_file,
    read_ensemble_file,
    read_matrix_file,
    read_model,
    write_coefficient_file,
    write_ensemble_file,
    write_matrix_file,
    write_model,
    z_rotation,
)
from paulinoise.model_io import (
    FORMAT_VERSION,
    KIND_COEFFICIENTS,
    KIND_ENSEMBLE,
    KIND_OPERATOR,
    KIND_SUPEROPERATOR,
    model_to_document,
)
from paulinoise.paulis import MAX_MODEL_QUBITS

#: A JSON document nested deeper than the decoder goes, in 10 kB.
DEEP_DOCUMENT = "[" * 5000 + "]" * 5000


def test_operator_file_round_trip_is_exact(tmp_path):
    path = tmp_path / "u.json"
    u = random_unitary(2, 9)
    text = write_matrix_file(path, u, KIND_OPERATOR, meta={"source": "test"})
    assert path.read_text() == text
    doc = read_matrix_file(path)
    assert doc.kind == KIND_OPERATOR
    assert doc.meta == {"source": "test"}
    np.testing.assert_array_equal(doc.matrix, u)


def test_superoperator_file_round_trip_is_exact(tmp_path):
    path = tmp_path / "s.json"
    s = lift_unitary(random_unitary(1, 3))
    write_matrix_file(path, s, KIND_SUPEROPERATOR)
    doc = read_matrix_file(path)
    assert doc.kind == KIND_SUPEROPERATOR
    np.testing.assert_array_equal(doc.matrix, s)


def test_matrix_writes_are_byte_deterministic(tmp_path):
    u = random_unitary(2, 9)
    a = write_matrix_file(tmp_path / "a.json", u, KIND_OPERATOR)
    b = write_matrix_file(tmp_path / "b.json", u, KIND_OPERATOR)
    assert a == b
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_matrix_write_validation():
    with pytest.raises(ModelFormatError):
        write_matrix_file(None, np.eye(1), KIND_OPERATOR)
    with pytest.raises(ModelFormatError):
        write_matrix_file(None, np.eye(3), KIND_SUPEROPERATOR)
    with pytest.raises(ModelFormatError):
        write_matrix_file(None, np.eye(2), "density_matrix")
    nan_matrix = np.eye(2, dtype=complex)
    nan_matrix[0, 0] = np.nan
    with pytest.raises(ModelFormatError):
        write_matrix_file(None, nan_matrix, KIND_OPERATOR)
    with pytest.raises(ModelFormatError):
        write_matrix_file(None, np.eye(2), KIND_OPERATOR, meta={"n": 2})


def test_read_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ModelFormatError):
        read_matrix_file(path)


def test_read_names_the_file_when_it_is_not_utf8(tmp_path):
    path = tmp_path / "latin.json"
    write_matrix_file(path, np.eye(2), KIND_OPERATOR, meta={"note": "x"})
    path.write_bytes(path.read_bytes().replace(b'"x"', b'"\xff"'))
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: invalid UTF-8 .*0xff"):
        read_matrix_file(path)


def test_read_decodes_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "accent.json"
    write_matrix_file(path, np.eye(2), KIND_OPERATOR, meta={"note": "x"})
    path.write_bytes(path.read_bytes().replace(b'"x"', '"\u00e9"'.encode("utf-8")))
    # Under the C locale, with UTF-8 mode and locale coercion off, Python's
    # default text encoding is ASCII; JSON is UTF-8 all the same.
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(paulinoise.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    code = (
        "import sys; from paulinoise import read_matrix_file;"
        " print(ascii(read_matrix_file(sys.argv[1]).meta))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True
    )
    assert (out.returncode, out.stdout) == (0, "{'note': '\\xe9'}\n"), out.stderr


def test_read_rejects_missing_file(tmp_path):
    with pytest.raises(ModelFormatError):
        read_matrix_file(tmp_path / "absent.json")


def test_read_rejects_wrong_format_version(tmp_path):
    path = tmp_path / "v2.json"
    write_matrix_file(path, np.eye(2), KIND_OPERATOR)
    doc = json.loads(path.read_text())
    doc["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as excinfo:
        read_matrix_file(path)
    assert "format_version" in str(excinfo.value)


def test_read_rejects_wrong_kind(tmp_path):
    path = tmp_path / "u.json"
    write_matrix_file(path, np.eye(2), KIND_OPERATOR)
    with pytest.raises(ModelFormatError):
        read_ensemble_file(path)
    with pytest.raises(ModelFormatError):
        read_coefficient_file(path)
    model_path = tmp_path / "m.json"
    write_model(model_path, nearest_pauli_channel(np.array([1.0, 0, 0, 0])))
    with pytest.raises(ModelFormatError):
        read_matrix_file(model_path)


def test_read_rejects_truncated_data(tmp_path):
    path = tmp_path / "u.json"
    write_matrix_file(path, np.eye(2), KIND_OPERATOR)
    doc = json.loads(path.read_text())
    doc["data"] = doc["data"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as excinfo:
        read_matrix_file(path)
    assert "data" in str(excinfo.value)


def test_read_rejects_nan_literal(tmp_path):
    path = tmp_path / "u.json"
    text = write_matrix_file(path, np.eye(2), KIND_OPERATOR)
    assert "1.0" in text
    path.write_text(text.replace("1.0", "NaN", 1))
    with pytest.raises(ModelFormatError):
        read_matrix_file(path)


def test_model_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "model.json"
    model = extract_from_unitary(z_rotation(0.1)).model
    write_model(path, model)
    loaded = read_model(path)
    assert loaded.n == model.n
    assert loaded.leakage_weight == model.leakage_weight
    assert loaded.diagnostics.identity_prob == model.diagnostics.identity_prob
    assert (
        loaded.diagnostics.coherent_residual_sq
        == model.diagnostics.coherent_residual_sq
    )
    assert (
        loaded.diagnostics.distance_to_source == model.diagnostics.distance_to_source
    )
    for label in pauli_basis(1):
        assert loaded.probabilities.get(label, 0.0) == model.probability(label)


def test_model_writes_are_byte_deterministic(tmp_path):
    model = extract_from_unitary(random_unitary(2, 21), random_unitary(2, 22)).model
    a = write_model(tmp_path / "a.json", model)
    b = write_model(tmp_path / "b.json", model)
    assert a == b
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_model_floor_drops_and_accounts_weight():
    tiny = 1e-13
    model = nearest_pauli_channel(np.array([0.6, 0.4 - tiny, tiny, 0.0]))
    doc = model_to_document(model)
    labels = [e["label"] for e in doc["entries"]]
    assert labels == ["I", "X"]
    assert doc["truncated_weight"] == pytest.approx(tiny, rel=1e-6)
    full = model_to_document(model, floor=0.0)
    assert [e["label"] for e in full["entries"]] == ["I", "X", "Y"]
    assert full["truncated_weight"] == 0.0


def test_model_entries_sorted_by_probability_then_index():
    model = nearest_pauli_channel(np.array([0.5, 0.25, 0.25, 0.0]))
    doc = model_to_document(model)
    assert [e["label"] for e in doc["entries"]] == ["I", "X", "Y"]


def test_model_provenance_is_preserved(tmp_path):
    path = tmp_path / "model.json"
    model = nearest_pauli_channel(np.array([1.0, 0, 0, 0]))
    write_model(path, model, provenance={"tool": "test", "inputs": ["a.json"]})
    doc = json.loads(path.read_text())
    assert doc["provenance"] == {"tool": "test", "inputs": ["a.json"]}


def _write_mutated_model(tmp_path, mutate):
    model = nearest_pauli_channel(np.array([0.9, 0.1, 0.0, 0.0]))
    doc = model_to_document(model)
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    return path


def test_read_model_rejects_duplicate_labels(tmp_path):
    def mutate(doc):
        doc["entries"].append(dict(doc["entries"][0]))

    with pytest.raises(ModelFormatError) as excinfo:
        read_model(_write_mutated_model(tmp_path, mutate))
    assert "more than once" in str(excinfo.value)


def test_read_model_rejects_out_of_range_probability(tmp_path):
    def mutate(doc):
        doc["entries"][0]["probability"] = 1.5

    path = _write_mutated_model(tmp_path, mutate)
    # The model judges the range, whatever the mode, and names the label.
    message = f"^{re.escape(str(path))}: probability for 'I' is 1\\.5, outside \\[0, 1\\]$"
    for strict in (True, False):
        with pytest.raises(ModelFormatError, match=message):
            read_model(path, strict=strict)


def test_read_model_rejects_wrong_label_length(tmp_path):
    def mutate(doc):
        doc["entries"][0]["label"] = "ZZ"

    with pytest.raises(ModelFormatError):
        read_model(_write_mutated_model(tmp_path, mutate))


def test_read_model_rejects_missing_diagnostics(tmp_path):
    def mutate(doc):
        del doc["diagnostics"]

    with pytest.raises(ModelFormatError):
        read_model(_write_mutated_model(tmp_path, mutate))


def test_read_model_budget_check_is_strict_only(tmp_path):
    def mutate(doc):
        doc["entries"] = [doc["entries"][1]]

    path = _write_mutated_model(tmp_path, mutate)
    with pytest.raises(ModelFormatError) as excinfo:
        read_model(path)
    assert "sum" in str(excinfo.value)
    loaded = read_model(path, strict=False)
    assert loaded.probability("X") == 0.1


def test_ensemble_round_trip_is_exact(tmp_path):
    path = tmp_path / "ensemble.json"
    eps = 0.2
    members = [
        EnsembleMember(0.5, z_rotation(eps)),
        EnsembleMember(0.5, z_rotation(-eps)),
    ]
    a = write_ensemble_file(path, members, meta={"note": "dephasing pair"})
    b = write_ensemble_file(tmp_path / "again.json", members, meta={"note": "dephasing pair"})
    assert a == b
    loaded = read_ensemble_file(path)
    assert len(loaded) == 2
    for original, back in zip(members, loaded):
        assert back.weight == original.weight
        np.testing.assert_array_equal(back.unitary, original.unitary)


def test_ensemble_write_validation(tmp_path):
    with pytest.raises(ModelFormatError):
        write_ensemble_file(None, [])
    with pytest.raises(ModelFormatError):
        write_ensemble_file(
            None,
            [EnsembleMember(0.5, np.eye(2)), EnsembleMember(0.5, np.eye(4))],
        )
    # One level: the reader would refuse the document.
    with pytest.raises(ModelFormatError, match="'dim' must be an integer >= 2, got 1"):
        write_ensemble_file(None, [EnsembleMember(1.0, np.eye(1))])


def test_ensemble_read_rejects_negative_weight(tmp_path):
    path = tmp_path / "ensemble.json"
    write_ensemble_file(path, [EnsembleMember(1.0, np.eye(2))])
    doc = json.loads(path.read_text())
    doc["members"][0]["weight"] = -0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(
        ModelFormatError,
        match=f"^{re.escape(str(path))}: 'members\\[0\\]': ensemble weight must be nonnegative",
    ):
        read_ensemble_file(path)


def test_coefficient_file_round_trip(tmp_path):
    path = tmp_path / "w.json"
    w = coefficient_matrix(lift_unitary(random_unitary(1, 11)))
    write_coefficient_file(path, w, meta={"basis": "pauli pairs"})
    np.testing.assert_array_equal(read_coefficient_file(path), w)
    with pytest.raises(ModelFormatError):
        write_coefficient_file(None, np.eye(5))


@pytest.mark.parametrize("n", [0, 6, 3_000_000])
def test_coefficient_file_n_is_held_to_the_channel_cap(tmp_path, n):
    # Checked before 4**n is formed: a huge n used to fail in Python's
    # int-to-string conversion with a bare ValueError.
    path = tmp_path / "w.json"
    write_coefficient_file(path, np.eye(4))
    doc = json.loads(path.read_text())
    doc["n"] = n
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=r"'n' must be an integer in \[1, 5\]"):
        read_coefficient_file(path)


def test_coefficient_writer_holds_n_to_the_reader_cap():
    # A zero-stride view: the 4**6-sided matrix takes no memory, and the
    # writer refuses it before any value is read.
    wide = np.broadcast_to(np.zeros(1, dtype=complex), (4**6, 4**6))
    with pytest.raises(ModelFormatError, match=r"'n' must be an integer in \[1, 5\], got 6"):
        write_coefficient_file(None, wide)


#: Each size field: a writer of a valid document, its reader, the field and
#: its bounds (no upper bound when ``None``).
SIZE_FIELDS = {
    "operator-dim": (
        lambda p: write_matrix_file(p, np.eye(2), KIND_OPERATOR), read_matrix_file, "dim", 2, None
    ),
    "superoperator-dim": (
        lambda p: write_matrix_file(p, np.eye(4), KIND_SUPEROPERATOR),
        read_matrix_file, "dim", 2, None,
    ),
    "ensemble-dim": (
        lambda p: write_ensemble_file(p, [EnsembleMember(1.0, np.eye(2))]),
        read_ensemble_file, "dim", 2, None,
    ),
    "coefficient-n": (
        lambda p: write_coefficient_file(p, np.eye(4)), read_coefficient_file, "n", 1, 5
    ),
    "model-n": (
        lambda p: write_model(p, nearest_pauli_channel(np.array([1.0, 0, 0, 0]))),
        read_model, "n", 1, MAX_MODEL_QUBITS,
    ),
}
SIZE_CASES = [
    (name, value)
    for name, (_, _, _, low, high) in SIZE_FIELDS.items()
    for value in [True, 2.0, "2", low - 1] + ([high + 1] if high is not None else [])
]


@pytest.mark.parametrize("name, value", SIZE_CASES, ids=[f"{n}={v!r}" for n, v in SIZE_CASES])
def test_every_size_field_is_an_integer_within_its_bounds(tmp_path, name, value):
    write, read, field, _, _ = SIZE_FIELDS[name]
    path = tmp_path / "doc.json"
    write(path)
    read(path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=rf"'{field}' must be an integer"):
        read(path)


def test_chain_export_single_qubit_hand_values():
    model = nearest_pauli_channel(np.array([0.4, 0.1, 0.2, 0.3]))
    text = export_stim_chain(model)
    cond_y = 0.2 / (1.0 - 0.1)
    cond_z = 0.3 / (1.0 - (0.1 + 0.2))
    assert text == (
        f"CORRELATED_ERROR({0.1!r}) X0\n"
        f"ELSE_CORRELATED_ERROR({cond_y!r}) Y0\n"
        f"ELSE_CORRELATED_ERROR({cond_z!r}) Z0\n"
    )
    recovered = chain_to_probabilities(text, 1)
    assert abs(recovered["X"] - 0.1) < 1e-15
    assert abs(recovered["Y"] - 0.2) < 1e-15
    assert abs(recovered["Z"] - 0.3) < 1e-15


def test_chain_export_two_qubit_targets_and_order():
    model = nearest_pauli_channel(
        {"II": 0.7, "IY": 0.1, "XZ": 0.2}
    )
    text = export_stim_chain(model)
    lines = text.splitlines()
    assert lines[0] == f"CORRELATED_ERROR({0.1!r}) Y1"
    assert lines[1].endswith(") X0 Z1")
    recovered = chain_to_probabilities(text, 2)
    assert set(recovered) == {"IY", "XZ"}
    assert abs(recovered["XZ"] - 0.2) < 1e-15


def test_chain_export_skips_identity_and_zeros():
    identity_only = nearest_pauli_channel(np.array([1.0, 0.0, 0.0, 0.0]))
    assert export_stim_chain(identity_only) == ""
    assert chain_to_probabilities("", 1) == {}


def test_chain_handles_fully_stochastic_budget():
    model = nearest_pauli_channel(np.array([0.0, 0.5, 0.3, 0.2]))
    text = export_stim_chain(model)
    assert text.splitlines()[-1].startswith("ELSE_CORRELATED_ERROR(1.0)")
    recovered = chain_to_probabilities(text, 1)
    for label, expected in (("X", 0.5), ("Y", 0.3), ("Z", 0.2)):
        assert abs(recovered[label] - expected) < 1e-12


def test_chain_reconstruction_random_models():
    rng = np.random.default_rng(2024)
    for n in (1, 2):
        labels = pauli_basis(n)
        for scale in (1.0, 0.05):
            for _ in range(10):
                point = rng.dirichlet(np.ones(4**n - 1)) * scale
                diag = np.concatenate([[1.0 - point.sum()], point])
                model = nearest_pauli_channel(diag)
                recovered = chain_to_probabilities(export_stim_chain(model), n)
                for label, expected in zip(labels[1:], point):
                    assert abs(recovered.get(label, 0.0) - expected) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ),
    scale=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_chain_reconstruction_property(raw, scale):
    total = sum(raw)
    if total == 0.0:
        point = [0.0, 0.0, 0.0]
    else:
        point = [x / total * scale for x in raw]
    diag = np.array([max(1.0 - sum(point), 0.0)] + point)
    model = nearest_pauli_channel(diag)
    recovered = chain_to_probabilities(export_stim_chain(model), 1)
    for label, expected in zip("XYZ", point):
        assert abs(recovered.get(label, 0.0) - expected) < 1e-12


def test_chain_parse_errors():
    with pytest.raises(ModelFormatError):
        chain_to_probabilities("ELSE_CORRELATED_ERROR(0.1) X0\n", 1)
    with pytest.raises(ModelFormatError):
        chain_to_probabilities("CORRELATED_ERROR(0.1) Q0\n", 1)
    with pytest.raises(ModelFormatError):
        chain_to_probabilities("CORRELATED_ERROR(1.5) X0\n", 1)
    with pytest.raises(ModelFormatError):
        chain_to_probabilities("CORRELATED_ERROR(0.1) X1\n", 1)
    with pytest.raises(ModelFormatError):
        chain_to_probabilities("CORRELATED_ERROR(0.1) X0 Y0\n", 1)
    with pytest.raises(ModelFormatError):
        chain_to_probabilities("CORRELATED_ERROR(0.1)\n", 1)
    with pytest.raises(ModelFormatError):
        chain_to_probabilities(
            "CORRELATED_ERROR(0.1) X0\nELSE_CORRELATED_ERROR(0.1) X0\n", 1
        )


@pytest.mark.parametrize(
    "target",
    ["X\u00b2", "X" + "1" * 5000, "X" + "1" * 5000 + "\u00b2"],
    ids=["superscript", "5000-digits", "5000-digits-superscript"],
)
def test_chain_parse_rejects_qubit_numbers_int_cannot_take(target):
    # str.isdigit admits "²", and int() refuses more than 4300 digits; both
    # used to escape as a bare ValueError. The message echoes a capped target.
    text = f"CORRELATED_ERROR(0.1) X0\nELSE_CORRELATED_ERROR(0.1) {target}\n"
    with pytest.raises(ModelFormatError, match="chain line 2") as info:
        chain_to_probabilities(text, 3)
    assert len(str(info.value)) < 200


def test_chain_parse_caps_an_echoed_line():
    with pytest.raises(ModelFormatError, match="chain line 1 must start") as info:
        chain_to_probabilities("Q" * 5000 + "\n", 1)
    assert len(str(info.value)) < 200
    assert "(5000 characters)" in str(info.value)


def _reference_pairs(pairs: list) -> np.ndarray:
    """Per-element reference for the matrix parser: one complex per pair."""
    out = np.empty(len(pairs), dtype=complex)
    for i, (re, im) in enumerate(pairs):
        out[i] = complex(float(re), float(im))
    return out


def test_matrix_parser_is_bit_identical_to_a_per_element_loop(tmp_path):
    rng = np.random.default_rng(17)
    u = random_unitary(2, 4)
    u[0, 0] = complex(-0.0, 0.0)
    u[1, 1] = complex(0.0, -0.0)
    cases = [
        (KIND_OPERATOR, u),
        (KIND_SUPEROPERATOR, lift_unitary(random_unitary(2, 5))),
        (KIND_OPERATOR, rng.standard_normal((4, 4)) * 1e300 + 1j * rng.standard_normal((4, 4)) * 1e-300),
    ]
    for i, (kind, matrix) in enumerate(cases):
        path = tmp_path / f"m{i}.json"
        write_matrix_file(path, matrix, kind)
        parsed = read_matrix_file(path).matrix
        expected = _reference_pairs(json.loads(path.read_text())["data"])
        assert parsed.tobytes() == expected.reshape(parsed.shape).tobytes()
    # Integer entries, as a hand-written file may carry them.
    path = tmp_path / "ints.json"
    data = [[1, 0], [0, -3], [2**53 + 1, 7], [-(10**20), 1]]
    path.write_text(json.dumps(
        {"format_version": 1, "kind": "operator", "dim": 2, "data": data}
    ))
    assert read_matrix_file(path).matrix.tobytes() == _reference_pairs(data).tobytes()

    path = tmp_path / "ensemble.json"
    members = [EnsembleMember(0.25, u), EnsembleMember(0.75, random_unitary(2, 6))]
    write_ensemble_file(path, members)
    doc = json.loads(path.read_text())
    for member, raw in zip(read_ensemble_file(path), doc["members"]):
        assert member.unitary.tobytes() == _reference_pairs(raw["data"]).reshape(4, 4).tobytes()


BAD_PAIRS = {
    "bool": "true",
    "string": '"1.0"',
    "one-item": "[1.0]",
    "three-items": "[1.0, 2.0, 3.0]",
    "nested": "[[1, 2], 3]",
    "null": "null",
    "bool-item": "[true, 0.0]",
    "string-item": '[0.0, "1"]',
    "null-item": "[null, 0.0]",
    "overflowing-float": "[1e999, 0.0]",
    "overflowing-negative-float": "[0.0, -1e999]",
    "401-digit-integer": "[" + "9" * 401 + ", 0.0]",
    "401-digit-negative-integer": "[0.0, -" + "9" * 401 + "]",
}


@pytest.mark.parametrize("bad", list(BAD_PAIRS.values()), ids=list(BAD_PAIRS))
def test_matrix_parser_names_the_first_bad_pair(tmp_path, bad):
    pairs = ["[1.0, 0.0]", "[0.0, 0.0]", "[0.0, 0.0]", "[1.0, 0.0]"]
    for index in (0, 2):
        data = list(pairs)
        data[index] = bad
        if index == 2:
            # A later structural fault must not hide the earlier one.
            data[3] = "[1.0]"
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format_version": 1, "kind": "operator", "dim": 2, "data": ['
            + ", ".join(data) + "]}"
        )
        with pytest.raises(ModelFormatError, match=rf"'data\[{index}\]'"):
            read_matrix_file(path)


def test_ensemble_reader_rejects_huge_integer_weight(tmp_path):
    path = tmp_path / "ensemble.json"
    write_ensemble_file(path, [EnsembleMember(1.0, np.eye(2))])
    path.write_text(path.read_text().replace('"weight": 1.0', '"weight": ' + "9" * 401))
    with pytest.raises(ModelFormatError, match="weight"):
        read_ensemble_file(path)


@pytest.mark.parametrize(
    "field",
    ["probability", "leakage_weight", "truncated_weight", "identity_prob", "distance_to_source"],
)
def test_read_model_rejects_huge_integers(tmp_path, field):
    huge = int("9" * 401)

    def mutate(doc):
        if field == "probability":
            doc["entries"][0]["probability"] = huge
        elif field in ("identity_prob", "distance_to_source"):
            doc["diagnostics"][field] = huge
        else:
            doc[field] = huge

    with pytest.raises(ModelFormatError, match=field):
        read_model(_write_mutated_model(tmp_path, mutate), strict=False)


def _plain_json(document) -> str:
    """The text every writer must produce: ``json.dumps`` of the document
    with every row a Python list or dict."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _pairs(matrix) -> list:
    return [[z.real, z.imag] for z in np.asarray(matrix).reshape(-1).tolist()]


# Signed zeros, the smallest subnormal and near-overflow magnitudes, then
# arbitrary finite doubles.
_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Quotes, backslashes, non-ASCII text, and text that reads like the
# placeholder a writer splices its rows into.
_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        [
            '"data": []',
            '"entries": []',
            '\n  "data": []\n',
            '\\"entries\\": []',
            'say "hi" \\ back',
            "n\u00e4he \u91cf\u5b50 \U0001f600",
        ]
    ),
)
_KEY = st.one_of(_TEXT, st.sampled_from(["data", "entries", "meta", "weight"]))
_META = st.dictionaries(_KEY, _TEXT, max_size=4)
_PROVENANCE = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOAT | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEY, inner, max_size=3),
    max_leaves=10,
)


def _matrices(side: int):
    """``side x side`` complex matrices: seeded values over many magnitudes,
    with some parts replaced by ``_FLOAT`` draws."""

    def build(seed_and_specials):
        seed, specials = seed_and_specials
        rng = np.random.default_rng(seed)
        size = 2 * side * side
        parts = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
        for position, value in specials:
            parts[position % parts.size] = value
        return parts.view(complex).reshape(side, side)

    specials = st.lists(st.tuples(st.integers(0, 10**6), _FLOAT), max_size=8)
    return st.tuples(st.integers(0, 2**32 - 1), specials).map(build)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([(KIND_OPERATOR, 2), (KIND_OPERATOR, 3), (KIND_SUPEROPERATOR, 2)]).flatmap(
        lambda kd: st.tuples(
            st.just(kd[0]),
            st.just(kd[1]),
            _matrices(kd[1] if kd[0] == KIND_OPERATOR else kd[1] ** 2),
        )
    ),
    meta=_META,
)
def test_matrix_file_text_is_that_of_json_dumps(case, meta):
    kind, dim, matrix = case
    document = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "dim": dim,
        "data": _pairs(matrix),
        "meta": meta,
    }
    assert write_matrix_file(None, matrix, kind, meta=meta) == _plain_json(document)


@settings(max_examples=40, deadline=None)
@given(
    members=st.integers(2, 3).flatmap(
        lambda dim: st.lists(
            st.tuples(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1e308]), _matrices(dim)),
            min_size=1,
            max_size=3,
        )
    ),
    meta=_META,
)
def test_ensemble_file_text_is_that_of_json_dumps(members, meta):
    document = {
        "format_version": FORMAT_VERSION,
        "kind": KIND_ENSEMBLE,
        "dim": members[0][1].shape[0],
        "members": [{"weight": w, "data": _pairs(m)} for w, m in members],
        "meta": meta,
    }
    written = write_ensemble_file(None, [EnsembleMember(w, m) for w, m in members], meta=meta)
    assert written == _plain_json(document)


@settings(max_examples=30, deadline=None)
@given(matrix=st.sampled_from([4, 16]).flatmap(_matrices), meta=_META)
def test_coefficient_file_text_is_that_of_json_dumps(matrix, meta):
    document = {
        "format_version": FORMAT_VERSION,
        "kind": KIND_COEFFICIENTS,
        "n": 1 if matrix.shape[0] == 4 else 2,
        "data": _pairs(matrix),
        "meta": meta,
    }
    assert write_coefficient_file(None, matrix, meta=meta) == _plain_json(document)


@settings(max_examples=60, deadline=None)
@example(
    [0.9, 0.1] + [0.0] * 14,
    2.0,
    {"entries": [], "note": '"entries": []', "nested": {"entries": []}},
)
@given(
    probs=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.25]), st.floats(0.0, 1.0)),
        min_size=16,
        max_size=16,
    ),
    # 2.0 is above every probability, so the model has no entries.
    floor=st.sampled_from([0.0, 1e-12, 0.5, 2.0]),
    provenance=st.none() | st.dictionaries(_KEY, _PROVENANCE, max_size=4),
)
def test_model_text_is_that_of_json_dumps(probs, floor, provenance):
    model = PauliNoiseModel(
        n=2, probs=np.array(probs), diagnostics=ModelDiagnostics(identity_prob=probs[0])
    )
    document = model_to_document(model, floor=floor, provenance=provenance, strict=False)
    written = write_model(None, model, floor=floor, provenance=provenance, strict=False)
    assert written == _plain_json(document)


def test_writers_refuse_non_finite_values(tmp_path):
    path = tmp_path / "out.json"
    # A model's probabilities are finite by construction; its diagnostics
    # are the model document's only numbers that can be non-finite.
    model = PauliNoiseModel(
        n=1,
        probs=np.array([0.5, 0.5, 0.0, 0.0]),
        diagnostics=ModelDiagnostics(0.5, coherent_residual_sq=np.inf),
    )
    with pytest.raises(
        ModelFormatError,
        match=r"out\.json: document contains non-finite numbers \(.*: inf\)$",
    ):
        write_model(path, model, strict=False)
    bad = np.eye(4, dtype=complex)
    bad[2, 1] = complex(0.0, np.inf)
    with pytest.raises(ModelFormatError, match="matrix contains non-finite entries"):
        write_coefficient_file(path, bad)
    members = [EnsembleMember(0.5, np.eye(2)), EnsembleMember(0.5, bad[1:3, :2])]
    with pytest.raises(ModelFormatError, match="matrix contains non-finite entries"):
        write_ensemble_file(path, members)
    assert not path.exists()


def test_construction_refuses_a_negative_truncated_weight():
    # The budget closes, but a negative truncated weight is no mass that a
    # writer dropped, so no such model is built, for any writer to write.
    with pytest.raises(ValueError, match=r"truncated_weight is -0\.1, not a finite number >= 0"):
        PauliNoiseModel(
            n=1,
            probs=np.array([0.6, 0.5, 0.0, 0.0]),
            truncated_weight=-0.1,
            diagnostics=ModelDiagnostics(0.6),
        )


@settings(max_examples=200, deadline=None)
# Budgets on the edge of the band, where rounding decides: the file lists the
# first's entries in another order than the model, and the writer moves the
# second's 1e-13, below the floor, into the truncated weight.
@example([0.0] * 12 + [1e-13, 1e-13, 1e-9], 0.0, 0.0, 1e-9, 0.0)
@example([0.0] * 10 + [1e-9, 1e-9, 0.0, 1e-13, 0.013003490165869828], 0.0, 0.0, 1e-9, 1e-12)
@given(
    rest=st.lists(
        st.one_of(st.sampled_from([0.0, 1e-13, 5e-12, 1e-10, 1e-9]), st.floats(0.0, 0.05)),
        min_size=15,
        max_size=15,
    ),
    leakage=st.one_of(st.sampled_from([0.0, 1e-10]), st.floats(0.0, 0.1)),
    truncated=st.sampled_from([0.0, 5e-10]),
    excess=st.floats(-2e-9, 2e-9),
    # Floors that drop entries into the written truncated weight.
    floor=st.sampled_from([0.0, 1e-12, 1e-11, 1e-9, 0.01]),
)
def test_strict_writer_and_strict_reader_share_one_budget(
    tmp_path_factory, rest, leakage, truncated, excess, floor
):
    identity = 1.0 + excess - leakage - truncated - sum(rest)
    assume(identity >= 0.0)
    model = PauliNoiseModel(
        n=2,
        probs=np.array([identity] + rest),
        leakage_weight=leakage,
        truncated_weight=truncated,
        diagnostics=ModelDiagnostics(identity_prob=identity),
    )
    path = tmp_path_factory.getbasetemp() / "budget.json"
    write_model(path, model, floor=floor, strict=False)
    try:
        write_model(None, model, floor=floor, strict=True)
        written = True
    except PhysicalityError:
        written = False
    try:
        read_model(path, strict=True)
        read = True
    except ModelFormatError:
        read = False
    assert written == read


def _in_budget(probs, leakage, truncated):
    """``probs`` scaled so that they, ``leakage`` and ``truncated`` sum to 1,
    or ``None`` when the two weights alone exceed 1 or every entry is 0."""
    room = 1.0 - leakage - truncated
    total = math.fsum(probs)
    if room < 0.0 or total == 0.0:
        return None
    return [min(p * room / total, 1.0) for p in probs]


@settings(max_examples=150, deadline=None)
# Both entries fall below the floor, and the dropped mass, 1 + 5e-10, is
# written as the truncated weight: over 1, yet within the budget's band.
@example(probs=[0.5, 0.5 + 5e-10, 0.0, 0.0], leakage=0.0, truncated=0.0, floor=0.6)
@given(
    probs=st.sampled_from([4, 16]).flatmap(
        lambda size: st.lists(
            st.one_of(st.sampled_from([0.0, 1e-13, 0.5, 1.0]), st.floats(0.0, 1.0)),
            min_size=size,
            max_size=size,
        )
    ),
    leakage=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    truncated=st.sampled_from([0.0, 5e-10, 0.1]),
    floor=st.sampled_from([0.0, 1e-12, 0.01, 0.6, 2.0]),
)
def test_every_written_model_reads_back_in_its_mode(
    tmp_path_factory, probs, leakage, truncated, floor
):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    n = 1 if len(probs) == 4 else 2
    for values in (probs, _in_budget(probs, leakage, truncated)):
        if values is None:
            continue
        model = PauliNoiseModel(
            n=n,
            probs=np.array(values),
            leakage_weight=leakage,
            truncated_weight=truncated,
            diagnostics=ModelDiagnostics(identity_prob=values[0]),
        )
        for strict in (False, True):
            try:
                text = write_model(path, model, floor=floor, strict=strict)
            except PhysicalityError:
                assert strict
                continue
            loaded = read_model(path, strict=strict)
            assert write_model(None, loaded, floor=floor, strict=strict) == text


# ---------------------------------------------------------------------------
# Every reader runs with the cyclic garbage collector paused, and leaves it
# as it found it.

#: Per reader: where a finite number sits in its document.
READERS = {
    "matrix": (read_matrix_file, lambda doc: doc["data"][0]),
    "coefficients": (read_coefficient_file, lambda doc: doc["data"][0]),
    "ensemble": (read_ensemble_file, lambda doc: doc["members"][0]["data"][0]),
    "model": (read_model, lambda doc: doc["entries"][0]),
}


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory) -> dict[str, Path]:
    """One valid file per reader: an n = 3 superoperator, an n = 2
    coefficient matrix, a 4-member n = 3 ensemble and an n = 5 model."""
    tmp_path = tmp_path_factory.mktemp("readers")
    rng = np.random.default_rng(41)
    files = {name: tmp_path / f"{name}.json" for name in READERS}
    write_matrix_file(files["matrix"], lift_unitary(random_unitary(3, 41)), KIND_SUPEROPERATOR)
    write_coefficient_file(
        files["coefficients"], rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    )
    write_ensemble_file(
        files["ensemble"], [EnsembleMember(0.25, random_unitary(3, 42 + k)) for k in range(4)]
    )
    probs = rng.dirichlet(np.ones(4**5))
    write_model(
        files["model"],
        PauliNoiseModel(n=5, probs=probs, diagnostics=ModelDiagnostics(float(probs[0]))),
    )
    return files


def _bad_file(tmp_path: Path, files: dict[str, Path], name: str, case: str) -> Path:
    """A file that makes reader ``name`` fail in the way ``case`` names."""
    path = tmp_path / f"{case}.json"
    if case == "missing":
        return path
    if case == "invalid-utf8":
        path.write_bytes(files[name].read_bytes() + b"\xff")
    elif case == "invalid-json":
        path.write_text("not json at all")
    elif case == "too-deep":
        path.write_text(DEEP_DOCUMENT)
    elif case == "wrong-kind":
        return files["matrix" if name == "model" else "model"]
    elif case == "non-finite":
        doc = json.loads(files[name].read_text())
        row = READERS[name][1](doc)
        row["probability" if name == "model" else 0] = "@"
        path.write_text(json.dumps(doc).replace('"@"', "1e999"))
    return path


def test_readers_run_no_collection(reader_files):
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        for name, path in reader_files.items():
            READERS[name][0](path)
    finally:
        gc.callbacks.remove(hook)
        if not enabled:
            gc.disable()
    assert started == []


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "case",
    ["valid", "missing", "invalid-utf8", "invalid-json", "too-deep", "wrong-kind", "non-finite"],
)
@pytest.mark.parametrize("name", list(READERS))
def test_readers_restore_the_collector_setting(tmp_path, reader_files, name, case, enabled):
    if case == "valid":
        path = reader_files[name]
    else:
        path = _bad_file(tmp_path, reader_files, name, case)
    reader = READERS[name][0]
    before = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if case == "valid":
            reader(path)
        else:
            with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: "):
                reader(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if before else gc.disable()


@pytest.mark.parametrize("name", list(READERS))
def test_readers_refuse_deeply_nested_documents(tmp_path, name):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_DOCUMENT)
    with pytest.raises(
        ModelFormatError, match=f"^{re.escape(str(path))}: invalid JSON \\(maximum recursion"
    ):
        READERS[name][0](path)


def test_concurrent_reads_leave_the_collector_on(tmp_path):
    # The collector setting belongs to the process. More threads than cores
    # and a short switch interval make reads overlap in every order; a read
    # that saw another's pause as the caller's setting would leave it off.
    path = tmp_path / "u.json"
    write_matrix_file(path, np.eye(2), KIND_OPERATOR)
    done: list[int] = []

    def read_many():
        for _ in range(50):
            read_matrix_file(path)
        done.append(50)

    enabled, interval = gc.isenabled(), sys.getswitchinterval()
    gc.enable()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            threads = [threading.Thread(target=read_many) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        gc.enable() if enabled else gc.disable()
    assert sum(done) == 20 * 8 * 50

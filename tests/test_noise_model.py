"""The probability vector behind PauliNoiseModel: its invariants, its label
view, and its serialization against a per-label dict loop kept here as the
oracle."""

from __future__ import annotations

import json
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulinoise import (
    DimensionError,
    ModelDiagnostics,
    ModelFormatError,
    PauliNoiseModel,
    PhysicalityError,
    SizeLimitError,
    export_stim_chain,
    extract_from_unitary,
    index_to_label,
    label_to_index,
    nearest_pauli_channel,
    pauli_channel,
    random_unitary,
    read_model,
    write_model,
)
from paulinoise.model_io import FORMAT_VERSION, KIND_MODEL


def _oracle_probabilities(model):
    """Every label with its probability, built one label at a time."""
    return {index_to_label(i, model.n): p for i, p in enumerate(model.probs.tolist())}


def _oracle_document_text(model, floor):
    kept = []
    truncated = model.truncated_weight
    for label, prob in _oracle_probabilities(model).items():
        if prob >= floor and prob > 0.0:
            kept.append((label, prob))
        else:
            truncated += prob
    kept.sort(key=lambda item: (-item[1], label_to_index(item[0])))
    document = {
        "format_version": FORMAT_VERSION,
        "kind": KIND_MODEL,
        "n": model.n,
        "entries": [{"label": label, "probability": prob} for label, prob in kept],
        "leakage_weight": model.leakage_weight,
        "truncated_weight": truncated,
        "diagnostics": {
            "identity_prob": model.diagnostics.identity_prob,
            "coherent_residual_sq": model.diagnostics.coherent_residual_sq,
            "distance_to_source": model.diagnostics.distance_to_source,
        },
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _oracle_chain(model):
    identity = "I" * model.n
    entries = sorted(
        (
            (label, prob)
            for label, prob in _oracle_probabilities(model).items()
            if prob > 0.0 and label != identity
        ),
        key=lambda item: label_to_index(item[0]),
    )
    lines = []
    prefix = 0.0
    for k, (label, prob) in enumerate(entries):
        denominator = 1.0 - prefix
        conditional = 1.0 if denominator <= 1e-15 else min(prob / denominator, 1.0)
        name = "CORRELATED_ERROR" if k == 0 else "ELSE_CORRELATED_ERROR"
        targets = " ".join(f"{ch}{q}" for q, ch in enumerate(label) if ch != "I")
        lines.append(f"{name}({conditional!r}) {targets}")
        prefix += prob
    return "\n".join(lines) + ("\n" if lines else "")


# Exact zeros (both signs), exact ties, entries just under, at and over the
# default floor, and arbitrary values.
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-13, 1e-12, 2e-12, 0.125, 0.25]),
    st.floats(min_value=0.0, max_value=1.0),
)


def _vanishing_chain(head):
    """Two-qubit probabilities whose first chain entries sum to ``head``'s
    total, leaving the denominator ``1 - sum`` at or near the 1e-15 cut past
    which every conditional is 1."""
    probs = [0.0] * 16
    probs[1 : 1 + len(head)] = head
    probs[5], probs[9], probs[15] = 0.25, 1e-3, 1e-17
    return probs


@settings(max_examples=100, deadline=None)
# Denominators of exactly 0, of 1.1e-16, just under the cut by rounding,
# just over it, and negative.
@example(_vanishing_chain([0.5, 0.5]), 0.0, 0.0, 0.0)
@example(_vanishing_chain([0.5, 0.5 - 2.0**-53]), 0.0, 0.0, 0.0)
@example(_vanishing_chain([0.5, 0.5 - 1e-15]), 0.0, 0.0, 0.0)
@example(_vanishing_chain([0.5, 0.5 - 2e-15]), 0.0, 0.0, 0.0)
@example(_vanishing_chain([0.75, 0.5]), 0.0, 0.0, 0.0)
@given(
    probs=st.integers(1, 4).flatmap(
        lambda n: st.lists(_ENTRY, min_size=4**n, max_size=4**n)
    ),
    floor=st.sampled_from([0.0, 1e-12, 0.2]),
    truncated=st.sampled_from([0.0, 2e-9, 0.1]),
    leakage=st.sampled_from([0.0, 0.25]),
)
def test_document_and_chain_match_per_label_oracle(probs, floor, truncated, leakage):
    n = (len(probs).bit_length() - 1) // 2
    model = PauliNoiseModel(
        n=n,
        probs=np.array(probs),
        leakage_weight=leakage,
        truncated_weight=truncated,
        diagnostics=ModelDiagnostics(identity_prob=probs[0]),
    )
    text = write_model(None, model, floor=floor, strict=False)
    assert text == _oracle_document_text(model, floor)
    assert export_stim_chain(model) == _oracle_chain(model)


def test_default_diagnostics_record_the_identity_probability(tmp_path):
    model = PauliNoiseModel(n=1, probs=[0.9, 0.1, 0.0, 0.0])
    assert model.diagnostics == ModelDiagnostics(identity_prob=0.9)
    path = tmp_path / "model.json"
    write_model(path, model)
    assert json.loads(path.read_text())["diagnostics"]["identity_prob"] == 0.9
    assert read_model(path) == model


def test_extracted_documents_match_per_label_oracle():
    for n in range(1, 8):
        model = extract_from_unitary(random_unitary(n, 40 + n)).model
        assert write_model(None, model) == _oracle_document_text(model, 1e-12)
        assert export_stim_chain(model) == _oracle_chain(model)


def test_model_vector_is_checked_and_read_only():
    source = np.array([0.5, 0.0, 0.5, 0.0])
    model = PauliNoiseModel(n=1, probs=source)
    source[0] = 0.0
    assert model.probs[0] == 0.5
    assert model.probs.dtype == np.float64
    with pytest.raises(ValueError):
        model.probs[1] = 0.1
    copy = model.as_array()
    copy[0] = 0.0
    assert model.probs[0] == 0.5
    for bad_n, bad_probs in ((1, np.zeros(5)), (2, np.zeros(4)), (1, np.zeros((2, 2)))):
        with pytest.raises(DimensionError):
            PauliNoiseModel(n=bad_n, probs=bad_probs)


@pytest.mark.parametrize("n", [0, -1, 13])
def test_model_qubit_count_is_held_to_the_model_cap(n):
    # One entry: the count is refused before any 4**n vector is asked for.
    with pytest.raises(SizeLimitError, match=rf"^qubit count {n} is outside .*\[1, 12\]$"):
        PauliNoiseModel(n=n, probs=[1.0])


@pytest.mark.parametrize("n", [True, 1.5, "2"])
def test_model_qubit_count_must_be_an_integer(n):
    with pytest.raises(DimensionError, match=rf"^qubit count must be an integer, got {n!r}$"):
        PauliNoiseModel(n=n, probs=[1.0, 0.0, 0.0, 0.0])


def test_numpy_integer_qubit_count_round_trips(tmp_path):
    model = PauliNoiseModel(
        n=np.int64(1), probs=[0.9, 0.1, 0.0, 0.0], diagnostics=ModelDiagnostics(0.9)
    )
    assert type(model.n) is int
    path = tmp_path / "model.json"
    assert '\n  "n": 1,\n' in write_model(path, model)
    assert read_model(path) == model


def test_model_equality_compares_vectors():
    a = nearest_pauli_channel(np.array([0.9, 0.1, 0.0, 0.0]))
    b = nearest_pauli_channel({"I": 0.9, "X": 0.1})
    assert a == b
    assert a != nearest_pauli_channel(np.array([0.9, 0.0, 0.1, 0.0]))
    assert a != PauliNoiseModel(n=1, probs=a.probs, diagnostics=a.diagnostics, truncated_weight=1e-3)
    assert a != "model"


def test_probabilities_view_lists_nonzero_entries():
    model = nearest_pauli_channel(np.array([0.5, 0.0, 0.5, 0.0]))
    view = model.probabilities
    assert dict(view) == {"I": 0.5, "Y": 0.5}
    assert list(view) == ["I", "Y"] and len(view) == 2
    assert "X" not in view and view.get("X", 0.0) == 0.0
    for missing in ("II", "", "Q", 3, None):
        assert missing not in view
    assert model.probability("X") == 0.0
    with pytest.raises(ValueError):
        model.probability("II")
    with pytest.raises(TypeError):
        view["Z"] = 0.1  # type: ignore[index]
    np.testing.assert_array_equal(pauli_channel(view), pauli_channel({"I": 0.5, "Y": 0.5}))


def test_truncated_weight_survives_write_read_write(tmp_path):
    # 4095 entries under the floor: the first write moves 2.05e-9 into
    # truncated_weight, and the read model must carry it for the budget to
    # close on the second write.
    probs = np.full(4**6, 5e-13)
    probs[0] = 1.0 - 4095 * 5e-13
    model = nearest_pauli_channel(probs)
    first = write_model(tmp_path / "a.json", model)
    loaded = read_model(tmp_path / "a.json")
    assert loaded.truncated_weight == json.loads(first)["truncated_weight"] > 0.0
    assert abs(loaded.total_weight() - 1.0) < 1e-12
    assert write_model(tmp_path / "b.json", loaded) == first
    assert read_model(tmp_path / "b.json") == loaded


def test_model_document_with_huge_qubit_count_fails_fast(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "kind": KIND_MODEL,
                "n": 40,
                "entries": [{"label": "I" * 40, "probability": 1.0}],
                "diagnostics": {"identity_prob": 1.0},
            }
        )
    )
    start = time.perf_counter()
    with pytest.raises(ModelFormatError, match="'n' must be an integer in"):
        read_model(path)
    assert time.perf_counter() - start < 1.0


def test_label_mapping_checks_the_model_qubit_cap():
    with pytest.raises(SizeLimitError):
        nearest_pauli_channel({"I" * 13: 1.0})
    assert nearest_pauli_channel({"Z" * 7: 1.0}).probability("Z" * 7) == 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["probs", "leakage_weight", "truncated_weight"])
def test_model_numbers_are_finite_by_construction(field, value):
    kwargs = {"probs": np.array([0.5, 0.25, 0.25, 0.0])}
    if field == "probs":
        kwargs["probs"][2] = value
        name = "probability for 'Y'"
    else:
        kwargs[field] = value
        name = field
    with pytest.raises(ValueError, match=re.escape(f"{name} is {float(value)!r}")):
        PauliNoiseModel(n=1, **kwargs)


def test_model_names_its_first_non_finite_number():
    # Built, this model would export as CORRELATED_ERROR(1.0) X0.
    with pytest.raises(ValueError, match="probability for 'X' is inf"):
        PauliNoiseModel(n=1, probs=[0.5, np.inf, np.nan, 0.0], leakage_weight=np.nan)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"probs": [0.5, np.nan, 0.5, 0.0]}, "probability for 'X' is nan, outside [0, 1]"),
        ({"probs": [1.0, 0.0, -1e-17, 0.0]}, "probability for 'Y' is -1e-17, outside [0, 1]"),
        ({"probs": [0.0, 0.0, 0.0, 1.5]}, "probability for 'Z' is 1.5, outside [0, 1]"),
        ({"probs": [0.5, 0.5, 0.0, 0.0], "leakage_weight": 1.5},
         "leakage_weight is 1.5, outside [0, 1]"),
    ],
    ids=["nan", "below-0", "above-1", "leakage-above-1"],
)
def test_model_numbers_are_in_range_by_construction(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PauliNoiseModel(n=1, **kwargs)


def test_truncated_weight_has_no_upper_bound_of_its_own():
    # Entries a floor dropped can sum past 1 by rounding; the budget, not the
    # construction rule, bounds the truncated weight.
    model = PauliNoiseModel(n=1, probs=[0.0, 0.0, 0.0, 0.0], truncated_weight=1.0 + 2e-16)
    assert model.validate() is model
    with pytest.raises(PhysicalityError, match=r"sum to 3\.0, not 1"):
        PauliNoiseModel(n=1, probs=[0.0, 0.0, 0.0, 0.0], truncated_weight=3.0).validate()

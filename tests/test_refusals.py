"""Library refusals that no other test reaches, each held to its message."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from paulinoise import (
    DimensionError,
    ExtractionResult,
    LeakageSpec,
    ModelFormatError,
    PauliNoiseModel,
    PhysicalityError,
    chain_to_probabilities,
    leakage_project_channel,
    nearest_pauli_channel,
    overrotated_cz,
    read_model,
    write_model,
    z_rotation,
)

ONE_QUBIT = PauliNoiseModel(n=1, probs=[0.9, 0.1, 0.0, 0.0])
QUTRIT = LeakageSpec(full_dim=3, comp_indices=(0, 1))


def _skewed_qutrit_channel() -> np.ndarray:
    # The identity channel with Im w = 1e-3 on one retained diagonal pair:
    # the retained weight's imaginary part is that over the block's side, 2.
    s = np.eye(9, dtype=complex)
    s[0, 0] += 1e-3j
    return s


REFUSALS = {
    "leakage-spec-full-dim": (
        lambda: LeakageSpec(full_dim=1, comp_indices=(0, 1)),
        DimensionError, "full dimension must be at least 2",
    ),
    "weight-matrix-without-expansion": (
        lambda: ExtractionResult(ONE_QUBIT).weight_matrix(),
        ValueError, "no expansion data recorded for this result",
    ),
    "nearest-pauli-channel-3d": (
        lambda: nearest_pauli_channel(np.zeros((4, 4, 4))),
        DimensionError, "weights must be a matrix, vector, or mapping, got ndim=3",
    ),
    "leakage-channel-shape": (
        lambda: leakage_project_channel(np.eye(16), QUTRIT),
        DimensionError,
        "superoperator shape (16, 16) does not match the declared full dimension 3",
    ),
    "leakage-channel-imaginary": (
        lambda: leakage_project_channel(_skewed_qutrit_channel(), QUTRIT),
        PhysicalityError,
        "retained weight has imaginary part 5.000e-04; the channel is not "
        "hermiticity preserving",
    ),
    "z-rotation-nan": (
        lambda: z_rotation(float("nan")),
        ValueError, "rotation angle must be finite, got nan",
    ),
    "overrotated-cz-inf": (
        lambda: overrotated_cz(float("inf")),
        ValueError, "over-rotation angle must be finite, got inf",
    ),
    "write-model-negative-floor": (
        lambda: write_model(None, ONE_QUBIT, floor=-1.0),
        ValueError, "probability floor must be finite and >= 0, got -1.0",
    ),
    "write-model-nan-floor": (
        lambda: write_model(None, ONE_QUBIT, floor=float("nan")),
        ValueError, "probability floor must be finite and >= 0, got nan",
    ),
    "chain-without-closing-parenthesis": (
        lambda: chain_to_probabilities("CORRELATED_ERROR(0.1 X0\n", 1),
        ModelFormatError, "chain line 1 has no closing parenthesis",
    ),
    "chain-malformed-probability": (
        lambda: chain_to_probabilities("CORRELATED_ERROR(0.1) X0\nELSE_CORRELATED_ERROR(0..2) Z0\n", 1),
        ModelFormatError, "chain line 2 has a malformed probability",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_library_refusal_messages(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_model_entry_label_outside_the_alphabet_names_the_entry(tmp_path):
    path = tmp_path / "m.json"
    write_model(path, PauliNoiseModel(n=2, probs=[0.9, 0.0, 0.0, 0.1] + [0.0] * 12))
    doc = json.loads(path.read_text())
    assert [entry["label"] for entry in doc["entries"]] == ["II", "IZ"]
    doc["entries"][1]["label"] = "IQ"
    path.write_text(json.dumps(doc))
    message = (
        f"{path}: 'entries[1].label': Pauli label 'IQ' contains invalid characters "
        "['Q']; the allowed alphabet is 'IXYZ'"
    )
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        read_model(path)

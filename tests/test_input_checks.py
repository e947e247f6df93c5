"""One rule per input check: the square-matrix check, the target check, the
superoperator side and the mixture lift, each shared by every route that
needs it."""

from __future__ import annotations

import numpy as np
import pytest

from paulinoise import (
    DimensionError,
    EnsembleMember,
    PhysicalityError,
    average_channel,
    error_unitary,
    extract_from_channel,
    extract_from_ensemble,
    extract_from_unitary,
    lift_unitary,
    nearest_pauli_channel,
    pauli_channel,
    pauli_coefficients,
    pauli_matrix,
    unitarity_defect,
    z_rotation,
)
from paulinoise.channels import _square_side, superoperator_dims

NOT_SQUARE = np.zeros((2, 3))

SQUARE_CHECKED = {
    "lift_unitary": lift_unitary,
    "superoperator_dims": superoperator_dims,
    "error_unitary": lambda m: error_unitary(m, np.eye(2)),
    "pauli_coefficients": pauli_coefficients,
    "nearest_pauli_channel": nearest_pauli_channel,
    "extract_from_unitary": extract_from_unitary,
    "EnsembleMember": lambda m: EnsembleMember(1.0, m),
    "unitarity_defect": unitarity_defect,
}


@pytest.mark.parametrize("name", sorted(SQUARE_CHECKED))
def test_every_matrix_input_has_one_square_check(name):
    with pytest.raises(DimensionError, match=r"^expected a square .*, got shape \(2, 3\)$"):
        SQUARE_CHECKED[name](NOT_SQUARE)


TARGET_MESSAGE = r"^target shape \(4, 4\) does not match the input dimension 2$"

ROUTES = {
    "unitary": lambda target: extract_from_unitary(z_rotation(0.1), target),
    "ensemble": lambda target: extract_from_ensemble(
        [EnsembleMember(0.5, z_rotation(0.1)), EnsembleMember(0.5, z_rotation(-0.1))], target
    ),
    "channel": lambda target: extract_from_channel(lift_unitary(z_rotation(0.1)), target),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_gives_one_target_message(route):
    with pytest.raises(DimensionError, match=TARGET_MESSAGE):
        ROUTES[route](np.eye(4))
    with pytest.raises(PhysicalityError, match="^target is not unitary"):
        ROUTES[route](1.1 * np.eye(2))


def test_target_shape_is_checked_even_when_nonphysical_inputs_are_allowed():
    with pytest.raises(DimensionError, match=TARGET_MESSAGE):
        error_unitary(np.eye(2), np.eye(4), allow_nonphysical=True)
    np.testing.assert_array_equal(
        error_unitary(np.eye(2), 2 * np.eye(2), allow_nonphysical=True), 2 * np.eye(2)
    )


@pytest.mark.parametrize("side", [0, 1, 2, 3, 16, 2**26 + 1, 2**60 + 1])
def test_square_side_is_exact(side):
    assert _square_side(side * side, "count") == side
    if side > 1:
        below = side * side - 1
        with pytest.raises(DimensionError, match=f"^count {below} is not a perfect square$"):
            _square_side(below, "count")


def _kron_loop(weights, ops):
    """The mixture lift written out one term at a time, zero weights included."""
    dim = ops[0].shape[0]
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for weight, op in zip(weights, ops):
        s += weight * np.kron(op, op.conj())
    return s


def _same_bits(a, b):
    # tobytes tells -0.0 from 0.0, which array_equal does not.
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# The first nonzero term of each input below holds -0.0 entries. A sum begun
# from that term instead of from zeros keeps those that no later term clears,
# which all of them are when it is the only term.


@pytest.mark.parametrize(
    "probs",
    [
        {"XY": 0.0, "ZZ": 0.1, "II": 0.7, "YI": 0.15, "IZ": 0.05},
        {"XY": 0.0, "ZZ": 1.0},
    ],
)
def test_pauli_channel_is_bit_identical_to_a_kron_loop(probs):
    expected = _kron_loop(list(probs.values()), [pauli_matrix(lab) for lab in probs])
    assert _same_bits(pauli_channel(probs), expected)


@pytest.mark.parametrize("weights", [[0.1, 0.4, 0.3, 0.0, 0.2], [1.0, 0.0, 0.0, 0.0, 0.0]])
def test_average_channel_is_bit_identical_to_a_kron_loop(weights):
    rng = np.random.default_rng(12)
    unitaries = [np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)] + [
        np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        for _ in range(4)
    ]
    members = [EnsembleMember(w, u) for w, u in zip(weights, unitaries)]
    assert _same_bits(average_channel(members), _kron_loop(weights, unitaries))

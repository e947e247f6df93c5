"""Reference unitaries, seeded Haar sampling, and channel constructors."""

from __future__ import annotations

import numpy as np
import pytest

from paulinoise import (
    DimensionError,
    EnsembleMember,
    PhysicalityError,
    SizeLimitError,
    average_channel,
    coefficient_matrix,
    entanglement_fidelity,
    error_unitary,
    extract_from_unitary,
    lift_unitary,
    nearest_pauli_channel,
    overrotated_cz,
    pauli_basis,
    pauli_channel,
    random_unitary,
    unitarity_defect,
    z_rotation,
)


def test_z_rotation_values():
    np.testing.assert_array_equal(z_rotation(0.0), np.eye(2))
    np.testing.assert_allclose(
        z_rotation(np.pi / 2), np.diag([-1j, 1j]), atol=1e-15
    )
    eps = 0.3
    u = z_rotation(eps)
    np.testing.assert_allclose(u[0, 0], np.exp(-1j * eps), atol=1e-16)
    np.testing.assert_allclose(u[1, 1], np.exp(1j * eps), atol=1e-16)
    assert u[0, 1] == 0.0 and u[1, 0] == 0.0


def test_overrotated_cz_reduces_to_cz():
    np.testing.assert_array_equal(
        overrotated_cz(0.0), np.diag([1.0, 1.0, 1.0, -1.0])
    )


def test_overrotated_cz_identity_probability():
    # The error unitary is diag(1, 1, 1, e^{-i theta}), whose identity
    # amplitude is (3 + e^{-i theta}) / 4.
    theta = 0.4
    err = error_unitary(overrotated_cz(theta), overrotated_cz(0.0))
    expected = abs((3 + np.exp(-1j * theta)) / 4) ** 2
    model = extract_from_unitary(overrotated_cz(theta), overrotated_cz(0.0)).model
    np.testing.assert_allclose(model.probability("II"), expected, atol=1e-14)
    np.testing.assert_allclose(
        entanglement_fidelity(lift_unitary(err)), expected, atol=1e-14
    )


def test_random_unitary_is_deterministic_per_seed():
    a = random_unitary(2, 123)
    b = random_unitary(2, 123)
    np.testing.assert_array_equal(a, b)
    c = random_unitary(2, 124)
    assert np.max(np.abs(a - c)) > 1e-3


def test_random_unitary_is_unitary():
    for n in (1, 2, 3):
        for seed in range(5):
            u = random_unitary(n, seed)
            assert u.shape == (2**n, 2**n)
            assert unitarity_defect(u) < 1e-12


def test_random_unitary_respects_qubit_cap():
    # Capped at MAX_MODEL_QUBITS, as every route it feeds is.
    with pytest.raises(SizeLimitError):
        random_unitary(13, 0)
    with pytest.raises(SizeLimitError):
        random_unitary(0, 0)
    random_unitary(7, 0)


def test_pauli_channel_identity():
    np.testing.assert_array_equal(pauli_channel({"I": 1.0}), np.eye(4))


def test_pauli_channel_structure():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    xx = np.kron(x, x)
    expected = 0.7 * np.eye(16) + 0.3 * np.kron(xx, xx.conj())
    np.testing.assert_allclose(
        pauli_channel({"II": 0.7, "XX": 0.3}), expected, atol=1e-15
    )


def test_pauli_channel_validation():
    with pytest.raises(DimensionError):
        pauli_channel({})
    with pytest.raises(DimensionError):
        pauli_channel({"I": 0.5, "ZZ": 0.5})
    with pytest.raises(ValueError):
        pauli_channel({"I": 0.5, "Z": 0.4})
    with pytest.raises(ValueError):
        pauli_channel({"I": 1.1, "Z": -0.1})
    with pytest.raises(ValueError):
        pauli_channel({"I": 0.5, "Q": 0.5})
    pauli_channel({"I": 0.5, "Z": 0.4}, simplex_tol=0.2)


def test_pauli_channel_round_trips_through_extraction():
    rng = np.random.default_rng(777)
    for n in (1, 2):
        labels = pauli_basis(n)
        for _ in range(5):
            probs = dict(zip(labels, rng.dirichlet(np.ones(4**n))))
            model = nearest_pauli_channel(coefficient_matrix(pauli_channel(probs)))
            for lab, p in probs.items():
                np.testing.assert_allclose(model.probability(lab), p, atol=1e-12)


def test_average_channel_single_member_is_lift():
    u = random_unitary(2, 5)
    np.testing.assert_allclose(
        average_channel([EnsembleMember(1.0, u)]), lift_unitary(u), atol=1e-15
    )


def test_average_channel_dephasing_pair_is_pauli():
    eps = 0.25
    avg = average_channel(
        [EnsembleMember(0.5, z_rotation(eps)), EnsembleMember(0.5, z_rotation(-eps))]
    )
    expected = pauli_channel({"I": np.cos(eps) ** 2, "Z": np.sin(eps) ** 2})
    np.testing.assert_allclose(avg, expected, atol=1e-15)


def test_average_channel_explicit_twirl():
    z = np.diag([1.0, -1.0]).astype(complex)
    avg = average_channel(
        [EnsembleMember(0.5, np.eye(2, dtype=complex)), EnsembleMember(0.5, z)]
    )
    np.testing.assert_allclose(
        avg, pauli_channel({"I": 0.5, "Z": 0.5}), atol=1e-15
    )


def test_average_channel_validation():
    with pytest.raises(ValueError):
        average_channel([])
    with pytest.raises(ValueError):
        average_channel(
            [EnsembleMember(0.6, np.eye(2)), EnsembleMember(0.6, np.eye(2))]
        )
    with pytest.raises(DimensionError):
        average_channel(
            [EnsembleMember(0.5, np.eye(2)), EnsembleMember(0.5, np.eye(4))]
        )
    with pytest.raises(PhysicalityError):
        average_channel([EnsembleMember(1.0, np.eye(2) * 1.01)])


def test_ensemble_member_validation():
    with pytest.raises(ValueError):
        EnsembleMember(-0.1, np.eye(2))
    with pytest.raises(DimensionError):
        EnsembleMember(1.0, np.zeros((2, 3)))

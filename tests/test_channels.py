"""The unitary lift, composition, fidelity, distance, physicality."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import random_mixture
from oracles import inner, pauli_pair_diagonal

from paulinoise import (
    DimensionError,
    PhysicalityError,
    channel_distance,
    coefficient_matrix,
    error_channel,
    extract_from_channel,
    hermiticity_defect,
    lift_unitary,
    overrotated_cz,
    pauli_channel,
    pauli_matrix,
    random_unitary,
    trace_preservation_defect,
    z_rotation,
)


def identity_prob(s: np.ndarray, **kwargs) -> float:
    """The channel route's identity weight ``w_II``, the entanglement
    fidelity of ``s`` with the identity."""
    return extract_from_channel(s, **kwargs).model.diagnostics.identity_prob


def test_vectorize_is_row_major():
    # vec(O)[a * D + b] = O[a, b]: with D = 4, the lift of I (x) X maps
    # vec(|0><2|) to vec(|1><3|), the unit vector at 1 * 4 + 3.
    unit = np.zeros((4, 4))
    unit[0, 2] = 1.0
    image = lift_unitary(np.kron(np.eye(2), pauli_matrix("X"))) @ unit.reshape(-1)
    assert np.flatnonzero(image).tolist() == [1 * 4 + 3]


def test_lift_identity():
    np.testing.assert_array_equal(lift_unitary(np.eye(2)), np.eye(4))


def test_lift_acts_by_conjugation():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        u = random_unitary(n, int(rng.integers(1, 2**31)))
        dim = 2**n
        rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        direct = u @ rho @ u.conj().T
        lifted = (lift_unitary(u) @ rho.reshape(-1)).reshape(dim, dim)
        np.testing.assert_allclose(lifted, direct, atol=1e-12)


def test_lift_rejects_nonunitary_without_override():
    with pytest.raises(PhysicalityError):
        lift_unitary(np.diag([1.0, 0.5]))
    lift_unitary(np.diag([1.0, 0.5]), allow_nonphysical=True)


def test_lift_dephasing_pair_coefficients():
    eps = 0.1
    w = coefficient_matrix(lift_unitary(z_rotation(eps)))
    c, s = np.cos(eps), np.sin(eps)
    np.testing.assert_allclose(w[0, 0], c**2, atol=1e-14)
    np.testing.assert_allclose(w[3, 3], s**2, atol=1e-14)
    np.testing.assert_allclose(w[0, 3], 1j * c * s, atol=1e-14)
    np.testing.assert_allclose(w[3, 0], -1j * c * s, atol=1e-14)
    np.testing.assert_allclose(abs(w[0, 3]), c * s, atol=1e-14)
    np.testing.assert_allclose(abs(w[3, 0]), c * s, atol=1e-14)
    mask = np.ones((4, 4), dtype=bool)
    mask[[0, 0, 3, 3], [0, 3, 0, 3]] = False
    assert float(np.max(np.abs(w[mask]))) < 1e-14


def test_compose_matches_product_of_unitaries():
    # Channels compose by the matrix product of their superoperators.
    u = random_unitary(2, 12)
    v = random_unitary(2, 13)
    np.testing.assert_allclose(
        lift_unitary(u) @ lift_unitary(v), lift_unitary(u @ v), atol=1e-12
    )


def test_compose_isolates_error_factor():
    eps = 0.1
    cz = overrotated_cz(0.0)
    error_factor = np.kron(z_rotation(eps), np.eye(2))
    implementation = error_factor @ cz
    residual = error_channel(lift_unitary(implementation), cz)
    np.testing.assert_allclose(residual, lift_unitary(error_factor), atol=1e-12)


def test_compose_shape_errors():
    with pytest.raises(DimensionError, match="^target shape"):
        error_channel(np.eye(4), np.eye(4))
    with pytest.raises(DimensionError, match="^superoperator dimension 5 is not a perfect square$"):
        error_channel(np.eye(5), np.eye(2))


def test_adjoint_of_unitary_lift_is_inverse_lift():
    u = random_unitary(2, 21)
    np.testing.assert_allclose(
        lift_unitary(u).conj().T, lift_unitary(u.conj().T), atol=1e-14
    )


def test_adjoint_conjugates_coefficients():
    # P kron Q.conj() is Hermitian, so <P kron Q.conj(), S^dag> is the
    # conjugate of <P kron Q.conj(), S> entry by entry. For a physical
    # channel w is Hermitian and the conjugate equals the transpose.
    s = random_mixture(1, 99)
    w = coefficient_matrix(s)
    w_adj = coefficient_matrix(s.conj().T)
    np.testing.assert_allclose(w_adj, w.conj(), atol=1e-12)
    np.testing.assert_allclose(w_adj, w.T, atol=1e-12)


def test_entanglement_fidelity_examples():
    assert identity_prob(np.eye(4, dtype=complex)) == 1.0
    assert identity_prob(lift_unitary(pauli_matrix("Z"))) == 0.0
    eps = 0.1
    np.testing.assert_allclose(
        identity_prob(lift_unitary(z_rotation(eps))),
        np.cos(eps) ** 2,
        atol=1e-14,
    )


def test_entanglement_fidelity_matches_trace_formula_for_unitaries():
    for n in (1, 2):
        for seed in range(5):
            u = random_unitary(n, seed + 1)
            np.testing.assert_allclose(
                identity_prob(lift_unitary(u)),
                abs(np.trace(u) / 2**n) ** 2,
                atol=1e-12,
            )


def test_entanglement_fidelity_imag_guard():
    s = np.eye(4, dtype=complex) * 1j
    with pytest.raises(PhysicalityError, match="^diagonal weights have imaginary parts"):
        identity_prob(s, allow_nonphysical=True)


def test_fidelity_of_adjoint_composition_is_inner_product():
    for trial in range(10):
        n = 1 + trial % 2
        phi = random_mixture(n, 100 + trial)
        chi = random_mixture(n, 200 + trial)
        lhs = identity_prob(phi.conj().T @ chi)
        rhs = inner(phi, chi).real
        assert abs(lhs - rhs) < 1e-10


def test_channel_distance_metric_axioms():
    a = random_mixture(1, 31)
    b = random_mixture(1, 32)
    c = random_mixture(1, 33)
    assert channel_distance(a, a) == 0.0
    assert channel_distance(a, b) == channel_distance(b, a)
    assert channel_distance(a, c) <= channel_distance(a, b) + channel_distance(b, c) + 1e-15
    assert channel_distance(a, b) > 0.0


def test_channel_distance_between_pauli_channels_closed_form():
    for eps in (0.05, 0.2, 0.4):
        c2, s2 = np.cos(eps) ** 2, np.sin(eps) ** 2
        px = pauli_channel({"I": c2, "X": s2})
        pz = pauli_channel({"I": c2, "Z": s2})
        np.testing.assert_allclose(
            channel_distance(px, pz) ** 2, 2 * np.sin(eps) ** 4, atol=1e-14
        )


def test_channel_distance_matches_entrywise_definition():
    a = random_mixture(1, 41)
    b = random_mixture(1, 42)
    brute = np.sqrt(
        sum(abs(a[i, j] - b[i, j]) ** 2 for i in range(4) for j in range(4)) / 4.0
    )
    np.testing.assert_allclose(channel_distance(a, b), brute, atol=1e-14)


def test_channel_distance_shape_errors():
    with pytest.raises(DimensionError):
        channel_distance(np.eye(4), np.eye(16))
    with pytest.raises(DimensionError):
        channel_distance(np.eye(5), np.eye(5))


def test_preservation_defects():
    s = lift_unitary(random_unitary(2, 5))
    assert trace_preservation_defect(s) < 1e-12
    assert hermiticity_defect(s) < 1e-12
    shrunk = s * 0.99
    assert trace_preservation_defect(shrunk) > 1e-3
    lopsided = np.eye(4, dtype=complex)
    lopsided[0, 1] = 0.01
    assert hermiticity_defect(lopsided) > 1e-3


def test_check_physicality_accepts_physical_channels():
    # The three physicality checks: trace and hermiticity preservation, and
    # real diagonal Pauli-pair weights.
    for s in (pauli_channel({"I": 0.9, "Y": 0.1}), random_mixture(2, 8)):
        assert trace_preservation_defect(s) < 1e-12
        assert hermiticity_defect(s) < 1e-12
        assert np.max(np.abs(pauli_pair_diagonal(s).imag)) < 1e-12


def test_check_physicality_flags_violations():
    not_tp = np.eye(4, dtype=complex) * 0.98
    assert trace_preservation_defect(not_tp) > 1e-3
    not_hp = np.eye(4, dtype=complex)
    not_hp[0, 1] = 0.01
    assert hermiticity_defect(not_hp) > 1e-3


def test_pauli_pair_diagonal_identity_channel():
    diag = pauli_pair_diagonal(np.eye(4, dtype=complex))
    np.testing.assert_allclose(diag, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

"""Error isolation, Pauli expansion, model projection, and leakage handling."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import random_mixture
from oracles import (
    identity_weight,
    off_diagonal_weight,
    pauli_coefficient_via_bitstrings,
    pauli_pair_diagonal,
)

from paulinoise import (
    DimensionError,
    EnsembleMember,
    LeakageSpec,
    PhysicalityError,
    average_channel,
    channel_distance,
    coefficient_matrix,
    error_channel,
    error_unitary,
    extract_from_channel,
    extract_from_unitary,
    leakage_project,
    leakage_project_channel,
    lift_unitary,
    nearest_pauli_channel,
    overrotated_cz,
    pauli_basis,
    pauli_channel,
    pauli_coefficients,
    pauli_matrix,
    random_unitary,
    z_rotation,
)

SWAP_12 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)


def test_error_unitary_perfect_gate_is_identity():
    u = random_unitary(2, 3)
    np.testing.assert_allclose(error_unitary(u, u), np.eye(4), atol=1e-12)


def test_error_unitary_strips_target_factor():
    eps = 0.1
    cz = overrotated_cz(0.0)
    error_factor = np.kron(z_rotation(eps), np.eye(2))
    np.testing.assert_allclose(
        error_unitary(error_factor @ cz, cz), error_factor, atol=1e-14
    )


def test_error_unitary_overrotated_cz():
    theta = 0.2
    err = error_unitary(overrotated_cz(theta), overrotated_cz(0.0))
    np.testing.assert_allclose(
        err, np.diag([1.0, 1.0, 1.0, np.exp(-1j * theta)]), atol=1e-14
    )


def test_error_unitary_validation():
    with pytest.raises(PhysicalityError):
        error_unitary(np.eye(2) * 1.01, np.eye(2))
    with pytest.raises(DimensionError):
        error_unitary(np.eye(2), np.eye(4))
    error_unitary(np.eye(2) * 1.01, np.eye(2), allow_nonphysical=True)


def test_pauli_coefficients_identity():
    coeffs = pauli_coefficients(np.eye(4, dtype=complex))
    assert coeffs["II"] == 1.0
    assert all(abs(v) < 1e-15 for lab, v in coeffs.items() if lab != "II")


def test_pauli_coefficients_z_rotation():
    eps = 0.1
    coeffs = pauli_coefficients(z_rotation(eps))
    np.testing.assert_allclose(coeffs["I"], np.cos(eps), atol=1e-15)
    np.testing.assert_allclose(coeffs["Z"], -1j * np.sin(eps), atol=1e-15)
    assert abs(coeffs["X"]) < 1e-15
    assert abs(coeffs["Y"]) < 1e-15


def test_pauli_coefficients_normalization():
    for n in (1, 2, 3):
        for seed in range(3):
            u = random_unitary(n, 17 + 5 * seed + n)
            total = sum(abs(v) ** 2 for v in pauli_coefficients(u).values())
            assert abs(total - 1.0) < 1e-12


def test_pauli_coefficients_requires_qubit_dimension():
    with pytest.raises(DimensionError):
        pauli_coefficients(np.eye(3))


def test_bitstring_route_equals_inner_product_route():
    for n in (1, 2):
        u = random_unitary(n, 17 + n)
        coeffs = pauli_coefficients(u)
        for label in pauli_basis(n):
            via_states = pauli_coefficient_via_bitstrings(label, lambda s: u @ s)
            assert abs(via_states - coeffs[label]) < 1e-12


def test_bitstring_route_z_rotation_values():
    eps = 0.3
    u = z_rotation(eps)
    np.testing.assert_allclose(
        pauli_coefficient_via_bitstrings("I", lambda s: u @ s), np.cos(eps), atol=1e-15
    )
    np.testing.assert_allclose(
        pauli_coefficient_via_bitstrings("Z", lambda s: u @ s),
        -1j * np.sin(eps),
        atol=1e-15,
    )


def test_bitstring_route_validates_oracle_shape():
    with pytest.raises(DimensionError):
        pauli_coefficient_via_bitstrings("I", lambda s: np.zeros(3))


def test_error_channel_strips_lifted_target():
    eps = 0.15
    cz = overrotated_cz(0.0)
    members = [
        EnsembleMember(0.5, np.kron(z_rotation(sign * eps), np.eye(2)) @ cz)
        for sign in (+1, -1)
    ]
    err = error_channel(average_channel(members), cz)
    expected = pauli_channel({"II": np.cos(eps) ** 2, "ZI": np.sin(eps) ** 2})
    np.testing.assert_allclose(err, expected, atol=1e-14)


def test_error_channel_validation():
    s = lift_unitary(np.eye(2))
    with pytest.raises(DimensionError):
        error_channel(s, np.eye(4))
    with pytest.raises(PhysicalityError):
        error_channel(s, np.eye(2) * 1.01)


def test_coefficient_matrix_identity_channel():
    w = coefficient_matrix(np.eye(4, dtype=complex))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(w, expected, atol=1e-14)


def test_coefficient_matrix_obeys_unitary_outer_product_law():
    for n in (1, 2):
        u = random_unitary(n, 50 + n)
        amps = pauli_coefficients(u)
        vec = np.array([amps[lab] for lab in pauli_basis(n)])
        w = coefficient_matrix(lift_unitary(u))
        np.testing.assert_allclose(w, np.outer(vec, vec.conj()), atol=1e-12)


def test_coefficient_matrix_diagonal_on_pauli_channels():
    probs = {"II": 0.8, "XI": 0.1, "YZ": 0.06, "ZZ": 0.04}
    w = coefficient_matrix(pauli_channel(probs))
    expected = np.zeros((16, 16))
    labels = pauli_basis(2)
    for lab, p in probs.items():
        idx = labels.index(lab)
        expected[idx, idx] = p
    np.testing.assert_allclose(w, expected, atol=1e-14)


def test_coefficient_matrix_trace_preserving_diagonal_sums_to_one():
    for n in (1, 2):
        w = coefficient_matrix(random_mixture(n, 60 + n))
        total = complex(np.sum(np.diagonal(w)))
        assert abs(total.real - 1.0) < 1e-10
        assert abs(total.imag) < 1e-10


def test_diagonal_weight_routes_agree():
    for n in (1, 2):
        s = random_mixture(n, 70 + n)
        w = coefficient_matrix(s)
        via_fidelity = pauli_pair_diagonal(s)
        for i in range(4**n):
            assert abs(w[i, i].real - via_fidelity[i].real) < 1e-10
            assert abs(w[i, i].imag) < 1e-10


def test_diagonal_weights_imag_guard():
    # Admitted as non-physical, the channel still may not carry imaginary
    # diagonal weights (0.0025 on I and Z here) into a model.
    not_hp = np.eye(4, dtype=complex)
    not_hp[0, 0] = 1.0 + 0.01j
    np.testing.assert_allclose(pauli_pair_diagonal(not_hp).imag, [0.0025, 0, 0, 0.0025])
    with pytest.raises(PhysicalityError, match="imaginary parts"):
        extract_from_channel(not_hp, allow_nonphysical=True)


def test_nearest_pauli_channel_from_z_rotation_matrix():
    eps = 0.1
    w = coefficient_matrix(lift_unitary(z_rotation(eps)))
    model = nearest_pauli_channel(w)
    assert model.n == 1
    np.testing.assert_allclose(model.probability("I"), np.cos(eps) ** 2, atol=1e-14)
    np.testing.assert_allclose(model.probability("Z"), np.sin(eps) ** 2, atol=1e-14)
    assert model.probability("X") < 1e-14
    assert model.leakage_weight == 0.0
    residual = model.diagnostics.coherent_residual_sq
    np.testing.assert_allclose(
        residual, 2 * (np.cos(eps) * np.sin(eps)) ** 2, atol=1e-14
    )
    np.testing.assert_allclose(
        model.diagnostics.distance_to_source, np.sqrt(residual), atol=1e-14
    )
    model.validate()


def test_nearest_pauli_channel_idempotent_on_pauli_channels():
    probs = {"II": 0.8, "XI": 0.1, "YZ": 0.06, "ZZ": 0.04}
    model = nearest_pauli_channel(coefficient_matrix(pauli_channel(probs)))
    for lab, p in probs.items():
        np.testing.assert_allclose(model.probability(lab), p, atol=1e-12)
    assert model.diagnostics.coherent_residual_sq < 1e-14
    assert model.diagnostics.distance_to_source < 1e-7


def test_nearest_pauli_channel_accepts_diagonal_only_inputs():
    from_map = nearest_pauli_channel({"I": 0.9, "X": 0.1})
    assert from_map.probability("X") == 0.1
    assert from_map.diagnostics.coherent_residual_sq is None
    assert from_map.diagnostics.distance_to_source is None
    from_vector = nearest_pauli_channel(np.array([0.9, 0.0, 0.1, 0.0]))
    assert from_vector.probability("Y") == 0.1
    with pytest.raises(DimensionError):
        nearest_pauli_channel(np.zeros(5))
    with pytest.raises(DimensionError):
        nearest_pauli_channel({})
    with pytest.raises(DimensionError):
        nearest_pauli_channel({"I": 0.5, "ZZ": 0.5})


def test_nearest_pauli_channel_rejects_negative_weights():
    with pytest.raises(PhysicalityError) as excinfo:
        nearest_pauli_channel(np.array([1.001, -0.001, 0.0, 0.0]))
    assert "X" in str(excinfo.value)


def test_nearest_pauli_channel_rejects_weights_above_one():
    # The dip of -1e-10 is within tolerance; the weight 1.3 is not clamped to 1.
    with pytest.raises(PhysicalityError) as excinfo:
        nearest_pauli_channel(np.array([1.3, 0.0, 0.0, -1e-10]))
    assert "for I " in str(excinfo.value)
    with pytest.raises(PhysicalityError, match="for ZX "):
        nearest_pauli_channel({"ZX": 1.0 + 2e-6})
    model = nearest_pauli_channel(np.array([1.0 + 5e-7, 0.0, 0.0, -1e-8]), tol=1e-6)
    assert model.probability("I") == 1.0
    # A scaled unitary is admitted by allow_nonphysical, and its weight above 1
    # is clamped under that flag.
    scaled = extract_from_unitary(np.eye(2) * 1.01, allow_nonphysical=True).model
    assert scaled.probability("I") == 1.0
    # Trace preserving, so the channel checks pass, but not completely
    # positive: dips within tol lift the identity weight past 1 + tol.
    weights = (1 + 2.7e-3, -0.9e-3, -0.9e-3, -0.9e-3)
    s = sum(
        e * np.kron(pauli_matrix(p), pauli_matrix(p).conj())
        for e, p in zip(weights, "IXYZ")
    )
    with pytest.raises(PhysicalityError, match="above 1"):
        extract_from_channel(s, tol=1e-3)
    assert extract_from_channel(np.eye(4) * 1.01, allow_nonphysical=True).model.probability("I") == 1.0


def test_nearest_pauli_channel_clamps_only_within_tolerance():
    model = nearest_pauli_channel(np.array([1.0, -1e-10, 0.0, 0.0]))
    assert model.probability("X") == 0.0
    with pytest.raises(PhysicalityError):
        nearest_pauli_channel(np.array([1.0, 1e-6j, 0.0, 0.0]))
    # The band follows tol: a dip of -1e-7 is refused by default, naming its
    # label and quoting the tolerance applied, and clamped to 0 at 1e-6.
    dip = np.array([1.0, -1e-7, 0.0, 0.0])
    with pytest.raises(PhysicalityError, match="for X ") as excinfo:
        nearest_pauli_channel(dip)
    assert "below -1e-09" in str(excinfo.value)
    assert nearest_pauli_channel(dip, tol=1e-6).probability("X") == 0.0
    with pytest.raises(PhysicalityError, match="above 1 \\+ 1e-06"):
        nearest_pauli_channel(np.array([1.0 + 2e-6, 0.0, 0.0, 0.0]), tol=1e-6)


def test_identity_probability_equals_entanglement_fidelity():
    for seed in range(5):
        s = random_mixture(2, 300 + seed)
        model = nearest_pauli_channel(coefficient_matrix(s))
        np.testing.assert_allclose(
            model.diagnostics.identity_prob, identity_weight(s).real, atol=1e-10
        )


def test_coherent_residual_examples():
    def residual(s):
        return extract_from_channel(s).model.diagnostics.coherent_residual_sq

    diagonal = nearest_pauli_channel(np.diag([0.9, 0.1, 0.0, 0.0]))
    assert diagonal.diagnostics.coherent_residual_sq == 0.0
    eps = 0.1
    expected = 2 * (np.cos(eps) * np.sin(eps)) ** 2
    np.testing.assert_allclose(residual(lift_unitary(z_rotation(eps))), expected, atol=1e-14)
    averaged = average_channel(
        [EnsembleMember(0.5, z_rotation(eps)), EnsembleMember(0.5, z_rotation(-eps))]
    )
    assert residual(averaged) < 1e-15


def test_distance_decomposition_identity():
    for trial in range(6):
        n = 1 + trial % 2
        s = random_mixture(n, 400 + 7 * trial)
        w = coefficient_matrix(s)
        model = nearest_pauli_channel(w)
        target = pauli_channel(model.probabilities)
        lhs = channel_distance(s, target) ** 2
        rhs = off_diagonal_weight(w) + float(
            np.sum(np.abs(np.diagonal(w) - model.as_array()) ** 2)
        )
        assert abs(lhs - rhs) < 1e-10
        np.testing.assert_allclose(
            model.diagnostics.distance_to_source ** 2, lhs, atol=1e-10
        )


def test_model_point_beats_simplex_samples():
    s = random_mixture(1, 55)
    model = nearest_pauli_channel(coefficient_matrix(s))
    base = channel_distance(s, pauli_channel(model.probabilities))
    rng = np.random.default_rng(99)
    labels = pauli_basis(1)
    for _ in range(200):
        candidate = dict(zip(labels, rng.dirichlet(np.ones(4))))
        alt = channel_distance(s, pauli_channel(candidate))
        assert alt >= base - 1e-12


def test_leakage_spec_validation():
    with pytest.raises(DimensionError):
        LeakageSpec(3, (1, 0))
    with pytest.raises(DimensionError):
        LeakageSpec(3, (0, 1, 2))
    with pytest.raises(DimensionError):
        LeakageSpec(3, (0, 3))
    with pytest.raises(DimensionError):
        LeakageSpec(3, (0,))
    with pytest.raises(DimensionError):
        LeakageSpec(3, (0, 0))
    spec = LeakageSpec(5, (1, 3))
    assert spec.comp_dim == 2
    assert spec.n == 1


def test_leakage_project_identity_has_no_leakage():
    block, leak = leakage_project(np.eye(3, dtype=complex), LeakageSpec(3, (0, 1)))
    assert leak == 0.0
    np.testing.assert_array_equal(block, np.eye(2))


def test_leakage_project_swap_splits_weight_in_half():
    spec = LeakageSpec(3, (0, 1))
    block, leak = leakage_project(SWAP_12, spec)
    assert leak == 0.5
    np.testing.assert_array_equal(block, np.diag([1.0, 0.0]))


def test_leakage_extraction_from_swap():
    spec = LeakageSpec(3, (0, 1))
    result = extract_from_unitary(SWAP_12, np.eye(3), leakage=spec)
    model = result.model
    np.testing.assert_allclose(model.probability("I"), 0.25, atol=1e-15)
    np.testing.assert_allclose(model.probability("Z"), 0.25, atol=1e-15)
    assert model.probability("X") < 1e-15
    assert model.probability("Y") < 1e-15
    assert model.leakage_weight == 0.5
    np.testing.assert_allclose(model.total_weight(), 1.0, atol=1e-12)
    model.validate()


def test_leakage_projections_follow_tol():
    spec = LeakageSpec(3, (0, 1))
    scaled = np.eye(3, dtype=complex) * (1 + 1e-7)
    for project, full in (
        (leakage_project, scaled),
        (leakage_project_channel, np.kron(scaled, scaled.conj())),
    ):
        with pytest.raises(PhysicalityError, match="leakage weight"):
            project(full, spec)
        _, leak = project(full, spec, tol=1e-6)
        assert leak == 0.0


def test_leakage_project_shape_guard():
    with pytest.raises(DimensionError):
        leakage_project(np.eye(4), LeakageSpec(3, (0, 1)))


def test_block_diagonal_embedding_has_zero_leakage():
    # Two-qutrit space; computational levels {0, 1} on each factor. The
    # unitary applies the CZ phase on |11> and acts trivially elsewhere.
    full = np.eye(9, dtype=complex)
    full[4, 4] = -1.0
    spec = LeakageSpec(9, (0, 1, 3, 4))
    block, leak = leakage_project(full, spec)
    assert leak == 0.0
    np.testing.assert_array_equal(block, overrotated_cz(0.0))
    result = extract_from_unitary(full, full, leakage=spec)
    np.testing.assert_allclose(result.model.probability("II"), 1.0, atol=1e-15)
    assert result.model.leakage_weight == 0.0


def test_leakage_project_channel_matches_unitary_block():
    spec = LeakageSpec(3, (0, 1))
    s_full = lift_unitary(SWAP_12)
    block_s, leak = leakage_project_channel(s_full, spec)
    assert abs(leak - 0.5) < 1e-15
    block_u, _ = leakage_project(SWAP_12, spec)
    np.testing.assert_allclose(block_s, np.kron(block_u, block_u.conj()), atol=1e-15)


def test_extract_from_channel_with_leakage():
    spec = LeakageSpec(3, (0, 1))
    result = extract_from_channel(lift_unitary(SWAP_12), np.eye(3), leakage=spec)
    model = result.model
    np.testing.assert_allclose(model.probability("I"), 0.25, atol=1e-14)
    np.testing.assert_allclose(model.probability("Z"), 0.25, atol=1e-14)
    np.testing.assert_allclose(model.leakage_weight, 0.5, atol=1e-14)


def test_extract_from_unitary_equals_channel_route():
    for n in (1, 2):
        u = random_unitary(n, 500 + n)
        u0 = random_unitary(n, 600 + n)
        from_unitary = extract_from_unitary(u, u0).model
        from_channel = extract_from_channel(lift_unitary(u), u0).model
        np.testing.assert_allclose(
            from_unitary.as_array(), from_channel.as_array(), atol=1e-12
        )
        np.testing.assert_allclose(
            from_unitary.diagnostics.coherent_residual_sq,
            from_channel.diagnostics.coherent_residual_sq,
            atol=1e-12,
        )


def test_extract_result_rebuilds_weight_matrix():
    result = extract_from_unitary(z_rotation(0.1))
    np.testing.assert_allclose(
        result.weight_matrix(),
        coefficient_matrix(lift_unitary(z_rotation(0.1))),
        atol=1e-14,
    )
    s, u0 = random_mixture(2, 77), random_unitary(2, 78)
    from_channel = extract_from_channel(s, u0)
    np.testing.assert_array_equal(
        from_channel.weight_matrix(), coefficient_matrix(error_channel(s, u0))
    )


def test_extract_from_channel_rejects_nonphysical_by_default():
    shrunk = np.eye(4, dtype=complex) * 0.99
    with pytest.raises(PhysicalityError):
        extract_from_channel(shrunk)
    result = extract_from_channel(shrunk, allow_nonphysical=True)
    np.testing.assert_allclose(result.model.probability("I"), 0.99, atol=1e-14)


def test_extract_from_channel_rejects_non_hermiticity_preserving():
    lopsided = np.eye(4, dtype=complex)
    lopsided[0, 1] = 0.01
    with pytest.raises(PhysicalityError):
        extract_from_channel(lopsided)


def test_routes_refuse_non_finite_weights_even_when_nonphysical():
    # An all-NaN model would export an empty stim chain, which says "no error".
    u = np.eye(2, dtype=complex)
    u[0, 0] = np.nan
    s = np.kron(u, u.conj())
    spec = LeakageSpec(3, (0, 1))
    with pytest.raises(ValueError, match="Pauli weights are not finite"):
        extract_from_unitary(u, allow_nonphysical=True)
    with pytest.raises(ValueError, match="Pauli weights are not finite"):
        extract_from_channel(s, allow_nonphysical=True)
    with pytest.raises(ValueError, match="Pauli weights are not finite"):
        extract_from_unitary(np.full((3, 3), np.nan), leakage=spec, allow_nonphysical=True)
    with pytest.raises(ValueError, match="Pauli weights are not finite"):
        extract_from_unitary(1e200 * np.eye(3), leakage=spec, allow_nonphysical=True)

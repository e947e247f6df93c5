"""The per-qubit Pauli transform against the retained slow oracles.

``pauli_coefficients``, ``coefficient_matrix`` and the channel route's
diagonal all run on the tensorized transform in ``paulis``. These tests hold
them to direct traces against dense Pauli matrices (``oracles.inner``) and
to the independent einsum in ``oracles.pauli_pair_diagonal``, on arbitrary
complex inputs that are neither unitary nor physical, and hold the channel
route's total weight to the coefficient matrix it no longer builds. The
channel route's error channel is held to the product with the target's lift
(``oracles.lifted_error_channel``) that it no longer builds either.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import inner, lifted_error_channel, pauli_pair_diagonal

from paulinoise import (
    LeakageSpec,
    coefficient_matrix,
    error_channel,
    extract_from_channel,
    leakage_project_channel,
    nearest_pauli_channel,
    pauli_basis,
    pauli_coefficients,
    pauli_matrix,
    random_unitary,
)
from paulinoise.extraction import _channel_diagonal

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _complex_matrix(dim: int, seed: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    seed=SEEDS,
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_pauli_coefficients_match_traces(n, seed, scale):
    m = _complex_matrix(2**n, seed, scale)
    coeffs = pauli_coefficients(m)
    assert list(coeffs) == pauli_basis(n)
    expected = [inner(pauli_matrix(label), m) for label in coeffs]
    # Each amplitude is a sum of 2**n entries of size ~scale over 2**n.
    np.testing.assert_allclose(list(coeffs.values()), expected, rtol=0, atol=1e-14 * scale)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=2), seed=SEEDS)
def test_coefficient_matrix_matches_traces_for_every_pair(n, seed):
    s = _complex_matrix(4**n, seed)
    w = coefficient_matrix(s)
    labels = pauli_basis(n)
    expected = np.array(
        [
            [inner(np.kron(pauli_matrix(p), pauli_matrix(q).conj()), s) for q in labels]
            for p in labels
        ]
    )
    np.testing.assert_allclose(w, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_coefficient_matrix_diagonal_matches_pair_diagonal(n):
    s = _complex_matrix(4**n, 40 + n)
    np.testing.assert_allclose(
        np.diagonal(coefficient_matrix(s)), pauli_pair_diagonal(s), rtol=0, atol=1e-14
    )


@settings(max_examples=5, deadline=None)
@given(seed=SEEDS)
def test_six_qubit_amplitudes_match_traces_on_a_label_sample(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(6, int(rng.integers(2**31)))
    coeffs = pauli_coefficients(u)
    labels = pauli_basis(6)
    for index in rng.choice(len(labels), size=64, replace=False):
        label = labels[index]
        assert abs(coeffs[label] - inner(pauli_matrix(label), u)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    seed=SEEDS,
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_channel_diagonal_and_total_match_the_coefficient_matrix(n, seed, scale):
    s = _complex_matrix(4**n, seed, scale)
    diag = _channel_diagonal(s, n)
    expected = pauli_pair_diagonal(s)
    np.testing.assert_allclose(diag.real, expected.real, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(diag.imag, expected.imag, rtol=0, atol=1e-12 * scale)
    # Parseval: the Pauli pairs are orthonormal under Tr(A^dag B) / D**2.
    total = np.vdot(s, s).real / s.shape[0]
    np.testing.assert_allclose(
        total, np.sum(np.abs(coefficient_matrix(s)) ** 2), rtol=1e-13, atol=0
    )


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=25, deadline=None)
@given(
    dim=st.sampled_from([2, 4, 8, 3, 9]),
    members=st.integers(min_value=1, max_value=3),
    seed=SEEDS,
)
def test_error_channel_matches_the_lifted_product(dim, members, seed):
    # Mixtures of unitaries on n <= 3 qubits and on the leakage dimensions 3
    # and 9, against a Haar-random target.
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(members))
    s = sum(p * np.kron(u, u.conj()) for p, u in ((p, _haar(dim, rng)) for p in weights))
    target = _haar(dim, rng)
    np.testing.assert_allclose(
        error_channel(s, target), lifted_error_channel(s, target), rtol=0, atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    extra=st.integers(min_value=0, max_value=1),
    members=st.integers(min_value=1, max_value=3),
    seed=SEEDS,
)
def test_channel_route_equals_the_projected_coefficient_matrix(n, extra, members, seed):
    # A mixture of unitaries on 2**n + extra levels against a random target;
    # with an extra level, the computational levels are drawn at random.
    rng = np.random.default_rng(seed)
    full = 2**n + extra
    weights = rng.dirichlet(np.ones(members))
    s = sum(p * np.kron(u, u.conj()) for p, u in ((p, _haar(full, rng)) for p in weights))
    target = _haar(full, rng)
    block, leak, spec = error_channel(s, target), 0.0, None
    if extra:
        spec = LeakageSpec(full, tuple(sorted(rng.choice(full, 2**n, replace=False))))
        block, leak = leakage_project_channel(block, spec)
    expected = nearest_pauli_channel(coefficient_matrix(block))
    model = extract_from_channel(s, target, leakage=spec).model
    np.testing.assert_allclose(model.probs, expected.probs, rtol=0, atol=1e-15)
    assert model.leakage_weight == leak
    for name in ("identity_prob", "coherent_residual_sq", "distance_to_source"):
        got, want = getattr(model.diagnostics, name), getattr(expected.diagnostics, name)
        assert abs(got - want) <= 1e-15, name

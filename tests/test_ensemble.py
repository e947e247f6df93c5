"""The ensemble route against the superoperator route it replaces.

``extract_from_ensemble`` builds its model from the members' error
amplitudes; ``extract_from_channel(average_channel(...))`` builds the dense
mixture superoperator and its full coefficient matrix. The two must agree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulinoise import (
    DimensionError,
    EnsembleMember,
    LeakageSpec,
    PhysicalityError,
    average_channel,
    extract_from_channel,
    extract_from_ensemble,
    extract_from_unitary,
    z_rotation,
)

TOL = 1e-12

#: (full dimension, computational levels) of the leakage embeddings tested.
EMBEDDINGS = {
    "qutrit": (3, (0, 1)),
    "two-qutrit": (9, (0, 1, 3, 4)),
}


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _ensemble(dim: int, k: int, rng: np.random.Generator) -> list[EnsembleMember]:
    weights = rng.dirichlet(np.ones(k))
    weights = weights / weights.sum()
    return [EnsembleMember(float(w), _haar(dim, rng)) for w in weights]


def _assert_routes_agree(members, target, leakage=None) -> None:
    fast = extract_from_ensemble(members, target, leakage=leakage)
    slow = extract_from_channel(average_channel(members), target, leakage=leakage)
    a, b = fast.model, slow.model
    assert a.n == b.n
    np.testing.assert_allclose(a.as_array(), b.as_array(), rtol=0, atol=TOL)
    assert abs(a.leakage_weight - b.leakage_weight) <= TOL
    for name in ("identity_prob", "coherent_residual_sq", "distance_to_source"):
        assert abs(getattr(a.diagnostics, name) - getattr(b.diagnostics, name)) <= TOL, name
    np.testing.assert_allclose(fast.weight_matrix(), slow.weight_matrix(), rtol=0, atol=TOL)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=6),
    with_target=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ensemble_route_matches_superoperator_route(n, k, with_target, seed):
    rng = np.random.default_rng(seed)
    members = _ensemble(2**n, k, rng)
    target = _haar(2**n, rng) if with_target else None
    _assert_routes_agree(members, target)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=4),
    ensemble=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_amplitude_routes_give_an_exactly_hermitian_weight_matrix(n, k, ensemble, seed):
    rng = np.random.default_rng(seed)
    target = _haar(2**n, rng)
    if ensemble:
        result = extract_from_ensemble(_ensemble(2**n, k, rng), target)
    else:
        result = extract_from_unitary(_haar(2**n, rng), target)
    w = result.weight_matrix()
    # Bit for bit: each entry below the diagonal is the conjugate of its
    # mirror, signed zeros included, and the diagonal is real with
    # imaginary parts of +0.0.
    bits = w.view(np.uint64).reshape(*w.shape, 2)
    mirror = np.ascontiguousarray(w.conj().T).view(np.uint64).reshape(*w.shape, 2)
    off = ~np.eye(len(w), dtype=bool)
    assert np.array_equal(bits[off], mirror[off])
    assert not np.diagonal(bits[..., 1]).any()
    product = (result.amplitudes.T * result.mixture) @ result.amplitudes.conj()
    np.testing.assert_allclose(w, product, rtol=0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    embedding=st.sampled_from(sorted(EMBEDDINGS)),
    k=st.integers(min_value=1, max_value=6),
    with_target=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ensemble_route_matches_superoperator_route_with_leakage(
    embedding, k, with_target, seed
):
    full_dim, comp = EMBEDDINGS[embedding]
    rng = np.random.default_rng(seed)
    members = _ensemble(full_dim, k, rng)
    target = _haar(full_dim, rng) if with_target else None
    _assert_routes_agree(members, target, LeakageSpec(full_dim, comp))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    with_target=st.booleans(),
    leak=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_single_member_reproduces_unitary_route_exactly(n, with_target, leak, seed):
    rng = np.random.default_rng(seed)
    full_dim, comp = EMBEDDINGS["two-qutrit"] if leak else (2**n, None)
    leakage = LeakageSpec(full_dim, comp) if leak else None
    u = _haar(full_dim, rng)
    target = _haar(full_dim, rng) if with_target else None
    single = extract_from_unitary(u, target, leakage=leakage)
    member = extract_from_ensemble([EnsembleMember(1.0, u)], target, leakage=leakage)
    # The routes share one amplitudes-to-model step, so nothing may drift.
    assert member.model == single.model
    np.testing.assert_array_equal(member.weight_matrix(), single.weight_matrix())


def test_dephasing_pair_has_no_coherent_residual():
    eps = 0.3
    result = extract_from_ensemble(
        [EnsembleMember(0.5, z_rotation(eps)), EnsembleMember(0.5, z_rotation(-eps))]
    )
    model = result.model
    assert abs(model.probability("I") - np.cos(eps) ** 2) < TOL
    assert abs(model.probability("Z") - np.sin(eps) ** 2) < TOL
    assert model.diagnostics.coherent_residual_sq < TOL


def test_six_qubit_ensemble_fits_the_unitary_cap():
    rng = np.random.default_rng(6)
    members = _ensemble(64, 2, rng)
    model = extract_from_ensemble(members).model
    assert model.n == 6
    assert abs(model.total_weight() - 1.0) < 1e-12


def test_ensemble_validation_matches_average_channel():
    cases = [
        ([], ValueError),
        ([EnsembleMember(0.6, np.eye(2)), EnsembleMember(0.6, np.eye(2))], ValueError),
        ([EnsembleMember(0.5, np.eye(2)), EnsembleMember(0.5, np.eye(4))], DimensionError),
        ([EnsembleMember(1.0, np.eye(2) * 1.01)], PhysicalityError),
    ]
    for members, error in cases:
        with pytest.raises(error):
            average_channel(members)
        with pytest.raises(error):
            extract_from_ensemble(members)


def test_ensemble_target_is_checked():
    members = [EnsembleMember(1.0, np.eye(2))]
    with pytest.raises(DimensionError):
        extract_from_ensemble(members, np.eye(4))
    with pytest.raises(PhysicalityError):
        extract_from_ensemble(members, 0.9 * np.eye(2))


def test_ensemble_trace_check_follows_tol():
    # Members and target each unitary within tol (defect 8e-7) compose to
    # errors whose mixture misses trace preservation by 1.6e-6: refused at
    # tol = 1e-6 unless allow_nonphysical is set, and accepted at 1e-5.
    members = [EnsembleMember(1.0, np.eye(2) * (1 + 4e-7))]
    target = np.eye(2) * (1 + 4e-7)
    with pytest.raises(PhysicalityError, match="trace preserving"):
        extract_from_ensemble(members, target, tol=1e-6)
    model = extract_from_ensemble(members, target, tol=1e-6, allow_nonphysical=True).model
    assert model.probability("I") == 1.0
    assert extract_from_ensemble(members, target, tol=1e-5).model.probability("I") == 1.0


def test_ensemble_leakage_range_follows_tol():
    # The same composition on three levels leaks -1.6e-6: outside [0, 1] by
    # more than tol = 1e-6, within 1e-5.
    members = [EnsembleMember(1.0, np.eye(3) * (1 + 4e-7))]
    target = np.eye(3) * (1 + 4e-7)
    kwargs = {"leakage": LeakageSpec(3, (0, 1)), "allow_nonphysical": True}
    with pytest.raises(PhysicalityError, match="leakage weight"):
        extract_from_ensemble(members, target, tol=1e-6, **kwargs)
    assert extract_from_ensemble(members, target, tol=1e-5, **kwargs).model.leakage_weight == 0.0

"""The numbers each route's checks measure, held to plain references.

Every route records in ``result.checks`` what its physicality checks and its
clamping measured, also where ``allow_nonphysical`` skips a verdict. The
references work from the error superoperator formed through the target's
lift (``oracles.lifted_error_channel``), the mixture summed from member
lifts, and the computational block cut out by index: the defects are those
of that channel, the leakage is ``1 - sum_P w_PP`` of the block
(``oracles.pauli_pair_diagonal``) or ``1 - sum_k p_k ||B_k||^2 / d``, and
the clamp numbers come from the diagonal of its coefficient matrix.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import lifted_error_channel, pauli_pair_diagonal

from paulinoise import (
    EnsembleMember,
    ExtractionChecks,
    LeakageSpec,
    PhysicalityError,
    coefficient_matrix,
    extract_from_channel,
    extract_from_ensemble,
    extract_from_unitary,
    hermiticity_defect,
    pauli_matrix,
    trace_preservation_defect,
    z_rotation,
)

TOL = 1e-12
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: Full dimension and computational levels of each space drawn: qubits with
#: no leakage spec, and two embeddings with one.
SPACES = {
    "1q": (2, None),
    "2q": (4, None),
    "3q": (8, None),
    "qutrit": (3, (0, 1)),
    "two-qutrit": (9, (0, 1, 3, 4)),
}


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _block_indices(full_dim: int, comp) -> np.ndarray:
    """Superoperator rows of the computational block: pairs of kept levels."""
    return np.array([a * full_dim + b for a in comp for b in comp])


def _mixture(weights, unitaries) -> np.ndarray:
    """``sum_k p_k kron(U_k, U_k^*)``, for members that need not be unitary."""
    return sum(w * np.kron(u, u.conj()) for w, u in zip(weights, unitaries))


def _expected(s, target, comp, defects) -> dict[str, float | None]:
    """Every field of the record, from the error superoperator of ``s``
    against ``target``; ``defects`` names the defects the route measures."""
    full_dim = int(np.sqrt(s.shape[0]))
    err = lifted_error_channel(s, np.eye(full_dim) if target is None else target)
    block = err if comp is None else err[np.ix_(*2 * [_block_indices(full_dim, comp)])]
    diag = np.diagonal(coefficient_matrix(block))
    return {
        "trace_defect": trace_preservation_defect(err) if "trace" in defects else None,
        "hermiticity_defect": hermiticity_defect(err) if "hermiticity" in defects else None,
        "leakage": None if comp is None else 1.0 - float(np.sum(pauli_pair_diagonal(block).real)),
        "max_imag": float(np.max(np.abs(diag.imag))),
        "min_weight": float(np.min(diag.real)),
        "max_weight": float(np.max(diag.real)),
        "clamped_mass": float(np.sum(np.abs(diag - np.clip(diag.real, 0.0, 1.0)))),
    }


def _assert_checks(checks: ExtractionChecks, expected: dict[str, float | None]) -> None:
    assert isinstance(checks, ExtractionChecks)
    for name, value in expected.items():
        got = getattr(checks, name)
        if value is None:
            assert got is None, name
        else:
            assert isinstance(got, float), name
            assert abs(got - value) <= TOL, (name, got, value)


def _amplitude_leakage(weights, errors, comp) -> float:
    """``1 - sum_k p_k ||B_k||_F^2 / d`` over the members' blocks ``B_k``."""
    idx = np.array(comp)
    kept = [np.linalg.norm(e[np.ix_(idx, idx)]) ** 2 / len(comp) for e in errors]
    return 1.0 - float(np.dot(weights, kept))


@settings(max_examples=40, deadline=None)
@given(
    space=st.sampled_from(sorted(SPACES)),
    with_target=st.booleans(),
    scale=st.sampled_from([1.0, 0.999, 1.001]),
    seed=SEEDS,
)
def test_unitary_route_records_its_checks(space, with_target, scale, seed):
    # A scaled unitary is refused by the unitarity check that
    # allow_nonphysical skips; its weights still are measured.
    full_dim, comp = SPACES[space]
    rng = np.random.default_rng(seed)
    u = np.sqrt(scale) * _haar(full_dim, rng)
    target = _haar(full_dim, rng) if with_target else None
    leakage = None if comp is None else LeakageSpec(full_dim, comp)
    if scale != 1.0:
        with pytest.raises(PhysicalityError, match="not unitary"):
            extract_from_unitary(u, target, leakage=leakage)
    result = extract_from_unitary(u, target, leakage=leakage, allow_nonphysical=scale != 1.0)
    _assert_checks(result.checks, _expected(_mixture([1.0], [u]), target, comp, ()))
    if comp is not None:
        err = u if target is None else u @ target.conj().T
        assert abs(result.checks.leakage - _amplitude_leakage([1.0], [err], comp)) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    space=st.sampled_from(sorted(SPACES)),
    k=st.integers(min_value=1, max_value=4),
    with_target=st.booleans(),
    nonphysical=st.booleans(),
    seed=SEEDS,
)
def test_ensemble_route_records_its_checks(space, k, with_target, nonphysical, seed):
    # Members and target each unitary within tol, but scaled so that the
    # mixture's trace defect, about 4 * 4e-7, exceeds it: refused unless
    # allow_nonphysical skips the verdict.
    full_dim, comp = SPACES[space]
    rng = np.random.default_rng(seed)
    stretch = 1.0 + 4e-7 if nonphysical else 1.0
    weights = rng.dirichlet(np.ones(k))
    weights = weights / weights.sum()
    unitaries = [stretch * _haar(full_dim, rng) for _ in range(k)]
    target = stretch * _haar(full_dim, rng) if with_target or nonphysical else None
    members = [EnsembleMember(float(w), u) for w, u in zip(weights, unitaries)]
    leakage = None if comp is None else LeakageSpec(full_dim, comp)
    kwargs = dict(leakage=leakage, tol=1e-6)
    if nonphysical:
        with pytest.raises(PhysicalityError, match="not trace preserving"):
            extract_from_ensemble(members, target, **kwargs)
    result = extract_from_ensemble(members, target, allow_nonphysical=nonphysical, **kwargs)
    expected = _expected(_mixture(weights, unitaries), target, comp, ("trace",))
    _assert_checks(result.checks, expected)
    if nonphysical:
        assert result.checks.trace_defect > 1e-6
    if comp is not None:
        errors = [u if target is None else u @ target.conj().T for u in unitaries]
        assert abs(result.checks.leakage - _amplitude_leakage(weights, errors, comp)) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    space=st.sampled_from(sorted(SPACES)),
    k=st.integers(min_value=1, max_value=3),
    with_target=st.booleans(),
    scale=st.sampled_from([1.0, 0.999, 1.001]),
    skew=st.sampled_from([0.0, 1e-11]),
    seed=SEEDS,
)
def test_channel_route_records_its_checks(space, k, with_target, scale, skew, seed):
    # A scaled mixture is not trace preserving, which allow_nonphysical
    # admits; a skew of 1e-11 breaks hermiticity preservation within tol.
    full_dim, comp = SPACES[space]
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    weights = scale * weights / weights.sum()
    s = _mixture(weights, [_haar(full_dim, rng) for _ in range(k)])
    s = s + skew * (rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape))
    target = _haar(full_dim, rng) if with_target else None
    leakage = None if comp is None else LeakageSpec(full_dim, comp)
    if scale != 1.0:
        with pytest.raises(PhysicalityError, match="not trace preserving"):
            extract_from_channel(s, target, leakage=leakage)
    result = extract_from_channel(s, target, leakage=leakage, allow_nonphysical=scale != 1.0)
    _assert_checks(result.checks, _expected(s, target, comp, ("trace", "hermiticity")))
    if scale != 1.0:
        assert result.checks.trace_defect > 1e-4
    if skew:
        assert result.checks.hermiticity_defect > 1e-12


@pytest.mark.parametrize(
    "route, defects",
    [
        (lambda: extract_from_channel(1.001 * np.eye(4), allow_nonphysical=True),
         (1e-3, 0.0)),
        (lambda: extract_from_unitary(np.sqrt(1.001) * np.eye(2), allow_nonphysical=True),
         (None, None)),
        # Member and target each unitary within tol: the error is 1.0005 I.
        (lambda: extract_from_ensemble(
            [EnsembleMember(1.0, 1.00025 * np.eye(2))], 1.00025 * np.eye(2),
            tol=1e-3, allow_nonphysical=True),
         (1e-3, None)),
    ],
    ids=["channel", "unitary", "ensemble"],
)
def test_a_clamped_weight_reports_the_mass_it_moved(route, defects):
    # 1.001 times the identity channel: w_II = 1.001 is clamped to 1, and
    # the record keeps the 1e-3 that the model no longer shows.
    result = route()
    checks = result.checks
    assert result.model.probability("I") == 1.0
    assert checks.max_weight == pytest.approx(1.001, abs=1e-6)
    assert checks.clamped_mass == pytest.approx(1e-3, abs=1e-6)
    assert (checks.min_weight, checks.max_imag, checks.leakage) == (0.0, 0.0, None)
    for got, want in zip((checks.trace_defect, checks.hermiticity_defect), defects):
        assert got is None if want is None else got == pytest.approx(want, abs=1e-6)


def test_numbers_clipped_within_tol_keep_their_values_in_the_record():
    # A Pauli "channel" with p_X = -5e-11 and p_I = 1 + 5e-11: both weights
    # lie within tol of [0, 1] and are clamped without a verdict.
    s = (1 + 5e-11) * np.eye(4) - 5e-11 * np.kron(pauli_matrix("X"), pauli_matrix("X"))
    checks = extract_from_channel(s).checks
    assert checks.min_weight == pytest.approx(-5e-11, rel=1e-6)
    assert checks.max_weight == pytest.approx(1 + 5e-11, rel=1e-15)
    assert checks.clamped_mass == pytest.approx(1e-10, rel=1e-6)
    # A qutrit identity stretched by 1e-7 retains more than all of its
    # weight: the leakage -2e-7 is clipped to 0 in the model only.
    spec = LeakageSpec(3, (0, 1))
    for result in (
        extract_from_unitary((1 + 1e-7) * np.eye(3), leakage=spec, tol=1e-6, allow_nonphysical=True),
        extract_from_channel((1 + 1e-7) ** 2 * np.eye(9), leakage=spec, tol=1e-6, allow_nonphysical=True),
    ):
        assert result.model.leakage_weight == 0.0
        assert result.checks.leakage == pytest.approx(-2e-7, rel=1e-6)


def test_the_record_is_frozen_and_unclamped_inputs_move_no_mass():
    checks = extract_from_unitary(z_rotation(0.1)).checks
    assert checks.clamped_mass == 0.0
    assert checks.max_weight == pytest.approx(np.cos(0.1) ** 2, abs=1e-15)
    with pytest.raises(dataclasses.FrozenInstanceError):
        checks.clamped_mass = 1.0

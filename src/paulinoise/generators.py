"""Analytic gates, seeded random unitaries, and reference channel builders.

These are the standard inputs used by the demos and the test suite: a
coherent Z over-rotation, an over-rotated CZ, Haar-random unitaries, exact
stochastic Pauli channels, and weighted ensemble averages.

Random unitaries are fully reproducible: a seeded PCG64 generator (numpy's
``default_rng``) fills a complex standard-normal matrix, a QR decomposition
orthonormalizes it, and the phases of R's diagonal are absorbed into Q. The
result is Haar distributed and identical for identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionError
from .paulis import (
    DEFAULT_SUPEROP_MAX_QUBITS,
    DEFAULT_TOL,
    MAX_MODEL_QUBITS,
    check_levels,
    check_qubits,
    mapping_qubits,
    pauli_matrix,
    require_unitary,
    square_matrix,
)

#: Probability vectors must hit the simplex this tightly.
DEFAULT_SIMPLEX_TOL = 1e-12


def _check_simplex(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` unchanged if they are finite, nonnegative and sum to 1
    within ``DEFAULT_SIMPLEX_TOL``: the one simplex rule, for Pauli-channel
    probabilities and ensemble weights alike. ``what`` names the values."""
    if not (np.isfinite(values).all() and (values >= 0.0).all()):
        raise ValueError(f"{what} must be finite and nonnegative")
    total = float(values.sum())
    if abs(total - 1.0) > DEFAULT_SIMPLEX_TOL:
        raise ValueError(f"{what} sum to {total!r}, not 1 within {DEFAULT_SIMPLEX_TOL:g}")
    return values


def z_rotation(epsilon: float) -> np.ndarray:
    """Coherent Z rotation ``exp(-1j * epsilon * Z) = diag(e^-ie, e^+ie)``."""
    if not np.isfinite(epsilon):
        raise ValueError(f"rotation angle must be finite, got {epsilon!r}")
    return np.diag([np.exp(-1j * epsilon), np.exp(1j * epsilon)])


def overrotated_cz(theta: float) -> np.ndarray:
    """CZ with excess controlled phase: ``diag(1, 1, 1, -e^{-i theta})``.

    ``theta = 0`` is the exact CZ gate.
    """
    if not np.isfinite(theta):
        raise ValueError(f"over-rotation angle must be finite, got {theta!r}")
    return np.diag([1.0, 1.0, 1.0, -np.exp(-1j * theta)]).astype(complex)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-random ``2**n`` unitary, deterministic for a fixed ``seed``; its
    ``4**n`` entries are capped as the largest model is."""
    check_qubits(n, MAX_MODEL_QUBITS)
    dim = 2**n
    rng = np.random.default_rng(seed)
    ginibre = (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / np.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@dataclass(frozen=True)
class EnsembleMember:
    """One branch of a probabilistic unitary implementation."""

    weight: float
    unitary: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "unitary", square_matrix(self.unitary, "ensemble member"))
        if not np.isfinite(self.weight) or self.weight < 0.0:
            raise ValueError(f"ensemble weight must be nonnegative, got {self.weight!r}")


def pauli_channel(probabilities: Mapping[str, float]) -> np.ndarray:
    """Superoperator ``sum_P e_P kron(P, P.conj())`` of a stochastic Pauli channel.

    All labels must share one qubit count, at most
    ``DEFAULT_SUPEROP_MAX_QUBITS`` so that the channel can be extracted again;
    missing labels mean probability 0. The probabilities must be finite,
    nonnegative and sum to 1 within ``DEFAULT_SIMPLEX_TOL`` (1e-12).
    """
    mapping_qubits(probabilities, DEFAULT_SUPEROP_MAX_QUBITS, "probability")
    values = _check_simplex(
        np.array([float(v) for v in probabilities.values()]), "probabilities"
    )
    return _lift_mixture(values, map(pauli_matrix, probabilities))


def _lift_mixture(weights: Iterable[float], ops: Iterable[np.ndarray]) -> np.ndarray:
    """Superoperator ``sum_k w_k kron(A_k, A_k.conj())`` of a weighted mixture
    of conjugations; zero weights add nothing and are skipped. At least one
    weight must be nonzero."""
    s = None
    for weight, op in zip(weights, ops):
        if weight != 0.0:
            term = weight * np.kron(op, op.conj())
            if s is None:
                s = np.zeros_like(term)  # onto zeros, so no entry is -0.0
            s += term
    return s


def _ensemble_arrays(
    members: Sequence[EnsembleMember] | Iterable[EnsembleMember],
    check_size: Callable[[int], object],
    *,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``(K,)`` and unitaries ``(K, D, D)`` of a validated ensemble.

    The ensemble must be non-empty, its members must act on one space and be
    unitary within ``tol``, and its weights must sum to 1 within
    ``DEFAULT_SIMPLEX_TOL``. ``check_size(D)``, the caller's size cap, runs
    before any unitarity check, the first work that grows as ``D**3``.
    """
    members = list(members)
    if not members:
        raise ValueError("ensemble has no members")
    dims = {m.unitary.shape[0] for m in members}
    if len(dims) != 1:
        raise DimensionError(f"ensemble members act on different dimensions: {sorted(dims)}")
    check_size(dims.pop())
    weights = _check_simplex(
        np.array([m.weight for m in members], dtype=float), "ensemble weights"
    )
    unitaries = np.stack(
        [require_unitary(m.unitary, tol, name="ensemble member") for m in members]
    )
    return weights, unitaries


def average_channel(
    members: Sequence[EnsembleMember] | Iterable[EnsembleMember],
) -> np.ndarray:
    """Superoperator of a weighted mixture of unitaries.

    Weights must be nonnegative and sum to 1 within ``DEFAULT_SIMPLEX_TOL``
    (1e-12); all members must act on the same space and be unitary within
    ``DEFAULT_TOL``. Like every dense superoperator, the result is held to
    ``DEFAULT_SUPEROP_MAX_QUBITS``, checked before the members are. It is
    trace preserving by construction but is generally not a unitary lift.
    """
    weights, unitaries = _ensemble_arrays(
        members, lambda dim: check_levels(dim, DEFAULT_SUPEROP_MAX_QUBITS)
    )
    return _lift_mixture(weights, unitaries)

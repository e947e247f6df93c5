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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionError
from .paulis import (
    DEFAULT_SUPEROP_MAX_QUBITS,
    DEFAULT_TOL,
    MAX_MODEL_QUBITS,
    check_qubits,
    pauli_matrix,
    require_unitary,
    validate_label,
)

#: Probability vectors must hit the simplex this tightly.
DEFAULT_SIMPLEX_TOL = 1e-12


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
        object.__setattr__(self, "unitary", np.asarray(self.unitary, dtype=complex))
        if self.unitary.ndim != 2 or self.unitary.shape[0] != self.unitary.shape[1]:
            raise DimensionError(
                f"ensemble member must be a square matrix, got {self.unitary.shape}"
            )
        if not np.isfinite(self.weight) or self.weight < 0.0:
            raise ValueError(f"ensemble weight must be nonnegative, got {self.weight!r}")


def pauli_channel(
    probabilities: Mapping[str, float],
    *,
    simplex_tol: float = DEFAULT_SIMPLEX_TOL,
) -> np.ndarray:
    """Superoperator ``sum_P e_P kron(P, P.conj())`` of a stochastic Pauli channel.

    All labels must share one qubit count, at most
    ``DEFAULT_SUPEROP_MAX_QUBITS`` so that the channel can be extracted again;
    missing labels mean probability 0. The probabilities must be nonnegative
    and sum to 1 within ``simplex_tol``.
    """
    if not probabilities:
        raise DimensionError("probability mapping is empty")
    lengths = {len(validate_label(lab)) for lab in probabilities}
    if len(lengths) != 1:
        raise DimensionError("probability mapping mixes labels of different lengths")
    n = check_qubits(lengths.pop(), DEFAULT_SUPEROP_MAX_QUBITS)
    values = np.array([float(v) for v in probabilities.values()])
    if np.any(~np.isfinite(values)) or np.any(values < 0.0):
        raise ValueError("probabilities must be finite and nonnegative")
    total = float(values.sum())
    if abs(total - 1.0) > simplex_tol:
        raise ValueError(
            f"probabilities sum to {total!r}, not 1 within {simplex_tol:g}"
        )
    dim = 2**n
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for label, prob in probabilities.items():
        if prob == 0.0:
            continue
        p = pauli_matrix(label)
        s += float(prob) * np.kron(p, p.conj())
    return s


def _ensemble_arrays(
    members: Sequence[EnsembleMember] | Iterable[EnsembleMember],
    *,
    simplex_tol: float = DEFAULT_SIMPLEX_TOL,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``(K,)`` and unitaries ``(K, D, D)`` of a validated ensemble.

    The ensemble must be non-empty, its members must act on one space and be
    unitary within ``tol``, and its weights must sum to 1 within
    ``simplex_tol``.
    """
    members = list(members)
    if not members:
        raise ValueError("ensemble has no members")
    dims = {m.unitary.shape[0] for m in members}
    if len(dims) != 1:
        raise DimensionError(f"ensemble members act on different dimensions: {sorted(dims)}")
    total = float(sum(m.weight for m in members))
    if abs(total - 1.0) > simplex_tol:
        raise ValueError(f"ensemble weights sum to {total!r}, not 1 within {simplex_tol:g}")
    unitaries = np.stack(
        [require_unitary(m.unitary, tol, name="ensemble member") for m in members]
    )
    return np.array([m.weight for m in members], dtype=float), unitaries


def average_channel(
    members: Sequence[EnsembleMember] | Iterable[EnsembleMember],
    *,
    simplex_tol: float = DEFAULT_SIMPLEX_TOL,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Superoperator of a weighted mixture of unitaries.

    Weights must be nonnegative and sum to 1 within ``simplex_tol``; all
    members must act on the same space and be unitary within ``tol``. The
    result is trace preserving by construction but is generally not a unitary
    lift.
    """
    weights, unitaries = _ensemble_arrays(members, simplex_tol=simplex_tol, tol=tol)
    dim = unitaries.shape[1]
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for weight, u in zip(weights, unitaries):
        s += weight * np.kron(u, u.conj())
    return s

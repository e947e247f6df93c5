"""Dense superoperators: the lift of a unitary, distance, and the trace and
hermiticity defects that judge physicality.

A channel ``C`` on a ``D``-dimensional system is stored as the ``D^2 x D^2``
complex matrix ``S`` that acts on row-major vectorized operators::

    vec(O)[a * D + b] = O[a, b]          vec(C(rho)) = S @ vec(rho)

With this convention the superoperator of a unitary ``U`` is
``kron(U, U.conj())``, and the normalized inner product
``Tr(A^dag B) / D^2`` makes the family ``kron(P, Q.conj())`` over Pauli
string pairs ``(P, Q)`` an orthonormal basis of channel space. Every
coefficient, fidelity, and distance in this package is expressed in that
basis and metric; in particular :func:`channel_distance` counts both
off-diagonal cross terms ``(P, Q)`` and ``(Q, P)`` separately, as any
entrywise norm must. Because the basis is orthonormal, the total weight
``sum_PQ |w_PQ|^2`` of a channel's coefficients is ``||S||_F^2 / D^2``
(Parseval), so the channel route in :mod:`paulinoise.extraction` reads it
off the superoperator without forming the coefficients.

Dimension cap: the only superoperator built here is :func:`lift_unitary`'s,
``16**n`` entries, capped at half of ``MAX_MODEL_QUBITS``
(:mod:`paulinoise.paulis`). The other functions only read the
superoperators they are given.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .paulis import (
    DEFAULT_TOL,
    MAX_MODEL_QUBITS,
    check_levels,
    require_unitary,
    square_matrix,
)


def _square_side(count: int, what: str) -> int:
    """The ``d`` with ``d * d == count``, in exact integer arithmetic;
    :class:`DimensionError` naming ``what`` if there is none."""
    side = math.isqrt(count)
    if side * side != count:
        raise DimensionError(f"{what} {count} is not a perfect square")
    return side


def superoperator_dims(s: np.ndarray) -> tuple[int, int]:
    """Validate a superoperator shape and return ``(D^2, D)``."""
    d2 = square_matrix(s, "superoperator").shape[0]
    return d2, _square_side(d2, "superoperator dimension")


def lift_unitary(
    u: np.ndarray,
    *,
    tol: float = DEFAULT_TOL,
    allow_nonphysical: bool = False,
) -> np.ndarray:
    """Superoperator of conjugation by ``u``: ``vec(u rho u^dag) = kron(u, u.conj()) vec(rho)``.

    ``u`` must be unitary within ``tol`` unless ``allow_nonphysical`` is set
    (useful for lifting non-unitary blocks for diagnostics). The lift
    of ``d`` levels holds ``d**4`` entries, so ``d`` is capped at
    ``2**(MAX_MODEL_QUBITS // 2)``: no more entries than the largest model.
    """
    u = square_matrix(u)
    check_levels(u.shape[0], MAX_MODEL_QUBITS // 2)
    if not allow_nonphysical:
        require_unitary(u, tol, name="lift_unitary input")
    # Entries beyond double precision become inf or NaN, which callers refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.kron(u, u.conj())


def channel_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between superoperators, normalized by ``D^2``.

    ``sqrt(Tr[(a - b)^dag (a - b)] / D^2)``; zero iff the matrices are equal,
    symmetric, and obeys the triangle inequality. In the Pauli-pair basis the
    square equals the sum of squared-magnitude coefficient differences over
    all ordered pairs ``(P, Q)``. A distance that is not finite raises
    ``ValueError``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    superoperator_dims(a)
    if a.shape != b.shape:
        raise DimensionError(
            f"cannot compare superoperators of shapes {a.shape} and {b.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sqrt(np.sum(np.abs(a - b) ** 2) / a.shape[0]))
    if not math.isfinite(value):
        raise ValueError(
            "channel distance is not finite: the squared differences overflow "
            "double precision, or an input holds a non-finite number"
        )
    return value


def trace_preservation_defect(s: np.ndarray) -> float:
    """Largest deviation of ``vec(I)^T s`` from ``vec(I)^T``.

    Zero exactly when the channel preserves the trace of every input.
    """
    s = np.asarray(s, dtype=complex)
    _, d = superoperator_dims(s)
    trace_row = np.eye(d, dtype=complex).reshape(-1)
    return float(np.max(np.abs(trace_row @ s - trace_row)))


def hermiticity_defect(s: np.ndarray) -> float:
    """Largest deviation from the hermiticity-preservation symmetry.

    A channel maps Hermitian inputs to Hermitian outputs iff the 4-index
    form ``T[i, k, j, l] = s[(i, k), (j, l)]`` satisfies
    ``T = T.transpose(1, 0, 3, 2).conj()``.
    """
    s = np.asarray(s, dtype=complex)
    _, d = superoperator_dims(s)
    t = s.reshape(d, d, d, d)
    return float(np.max(np.abs(t - t.transpose(1, 0, 3, 2).conj())))

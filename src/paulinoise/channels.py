"""Dense superoperators: construction, composition, fidelity, distance, and
the trace and hermiticity defects that judge physicality.

A channel ``C`` on a ``D``-dimensional system is stored as the ``D^2 x D^2``
complex matrix ``S`` that acts on row-major vectorized operators::

    vec(O)[a * D + b] = O[a, b]          vec(C(rho)) = S @ vec(rho)

With this convention the superoperator of a unitary ``U`` is
``kron(U, U.conj())``, and the inner product ``Tr(A^dag B) / D^2`` (the
default normalization of :func:`paulinoise.paulis.frobenius_inner` at the
superoperator dimension) makes the family ``kron(P, Q.conj())`` over Pauli
string pairs ``(P, Q)`` an orthonormal basis of channel space. Every
coefficient, fidelity, and distance in this package is expressed in that
basis and metric; in particular :func:`channel_distance` counts both
off-diagonal cross terms ``(P, Q)`` and ``(Q, P)`` separately, as any
entrywise norm must. Because the basis is orthonormal, the total weight
``sum_PQ |w_PQ|^2`` of a channel's coefficients is ``||S||_F^2 / D^2``
(Parseval), so the channel route in :mod:`paulinoise.extraction` reads it
off the superoperator without forming the coefficients.

Dimension caps: dense superoperator construction is capped at
``DEFAULT_SUPEROP_MAX_QUBITS`` qubits because memory grows as ``16**n``, and
:func:`lift_unitary` at half of ``MAX_MODEL_QUBITS``; both caps are defined
in :mod:`paulinoise.paulis`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DimensionError, PhysicalityError
from .paulis import (
    DEFAULT_SUPEROP_MAX_QUBITS,
    DEFAULT_TOL,
    MAX_MODEL_QUBITS,
    check_levels,
    qubit_count,
    require_unitary,
    square_matrix,
)


def vectorize(op: np.ndarray) -> np.ndarray:
    """Row-major vectorization: ``vec(O)[a * D + b] = O[a, b]``."""
    return square_matrix(op).reshape(-1)


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; the length must be a perfect square."""
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {vec.shape}")
    dim = _square_side(vec.size, "vector length")
    return vec.reshape(dim, dim)


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
    return np.kron(u, u.conj())


def channel_from_oracle(oracle: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Dense superoperator of a channel given only as a callable on operators.

    ``oracle`` receives each matrix unit ``|a><b|`` (a ``dim x dim`` array with
    a single unit entry) and must return the ``dim x dim`` image. Column
    ``a * dim + b`` of the result is the vectorized image of ``|a><b|``.
    """
    if dim < 2:
        raise DimensionError("operator dimension must be at least 2")
    check_levels(dim, DEFAULT_SUPEROP_MAX_QUBITS)
    s = np.empty((dim * dim, dim * dim), dtype=complex)
    unit = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            unit[a, b] = 1.0
            image = np.asarray(oracle(unit.copy()), dtype=complex)
            if image.shape != (dim, dim):
                raise DimensionError(
                    f"oracle returned shape {image.shape} for a {dim}-dimensional input"
                )
            s[:, a * dim + b] = image.reshape(-1)
            unit[a, b] = 0.0
    return s


def compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Superoperator of ``outer`` applied after ``inner`` (matrix product)."""
    outer = np.asarray(outer, dtype=complex)
    inner = np.asarray(inner, dtype=complex)
    superoperator_dims(outer)
    superoperator_dims(inner)
    if outer.shape != inner.shape:
        raise DimensionError(
            f"cannot compose superoperators of shapes {outer.shape} and {inner.shape}"
        )
    return outer @ inner


def entanglement_fidelity(
    s: np.ndarray,
    *,
    tol: float = DEFAULT_TOL,
) -> float:
    """Entanglement fidelity of a channel with the identity.

    Equal to the average of ``<a| C(|a><b|) |b>`` over all ``D^2`` index
    pairs. Under row-major vectorization each of those brackets is a diagonal
    entry of the superoperator, so the value is ``trace(s) / D^2`` and the
    doubled-space state is never formed. For the lift of a unitary ``U`` this
    is ``|Tr(U) / D|^2``, the identity weight of the channel.
    """
    s = np.asarray(s, dtype=complex)
    d2, d = superoperator_dims(s)
    qubit_count(d)
    value = complex(np.trace(s)) / d2
    if abs(value.imag) > tol:
        raise PhysicalityError(
            f"entanglement fidelity has imaginary part {value.imag:.3e}, beyond "
            f"tolerance {tol:g}; the channel is not hermiticity preserving"
        )
    return float(value.real)


def channel_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between superoperators, normalized by ``D^2``.

    ``sqrt(Tr[(a - b)^dag (a - b)] / D^2)``; zero iff the matrices are equal,
    symmetric, and obeys the triangle inequality. In the Pauli-pair basis the
    square equals the sum of squared-magnitude coefficient differences over
    all ordered pairs ``(P, Q)``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    superoperator_dims(a)
    if a.shape != b.shape:
        raise DimensionError(
            f"cannot compare superoperators of shapes {a.shape} and {b.shape}"
        )
    diff = a - b
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) / a.shape[0]))


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

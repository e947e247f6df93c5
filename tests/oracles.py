"""Slow reference computations the tests hold the library's kernels to.

Each one works from dense Pauli matrices (``pauli_matrix``), one string at a
time, and shares no code with the per-qubit transform behind
``pauli_coefficients``, ``coefficient_matrix`` and the extraction routes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from paulinoise import DimensionError, pauli_basis, pauli_matrix, qubit_count, validate_label
from paulinoise.channels import superoperator_dims


def pauli_pair_diagonal(s: np.ndarray) -> np.ndarray:
    """Diagonal Pauli-pair coefficients ``<kron(P, P.conj()), s>`` for every
    Pauli string ``P``, in basis index order.

    Computed through the same index reduction as ``entanglement_fidelity``
    applied to ``P``-twirled channels, without the full coefficient matrix:

    ``w_P = (1 / D^2) sum_{a,b,c,e} P[a, c] s[(c, e), (a, b)] P[e, b]``

    The Pauli matrices are stacked from ``pauli_matrix`` on every call. The
    result is complex; hermiticity-preserving channels have real entries.
    """
    s = np.asarray(s, dtype=complex)
    d2, d = superoperator_dims(s)
    stack = np.stack([pauli_matrix(label) for label in pauli_basis(qubit_count(d))])
    t = s.reshape(d, d, d, d)
    return np.einsum("pac,ceab,peb->p", stack, t, stack, optimize=True) / d2


def pauli_coefficient_via_bitstrings(
    label: str,
    oracle: Callable[[np.ndarray], np.ndarray],
) -> complex:
    """Pauli amplitude of an error unitary available only as a state oracle.

    ``oracle`` maps a computational basis state (length ``2**n`` vector) to
    its image under the error unitary. The amplitude is recovered as the
    average over all bitstrings ``b`` of ``<b| P U_err |b>``: prepare ``|b>``,
    apply the unitary and then ``P``, and read the amplitude left on ``|b>``.
    """
    validate_label(label)
    dim = 2 ** len(label)
    p = pauli_matrix(label)
    total = 0.0 + 0.0j
    state = np.zeros(dim, dtype=complex)
    for b in range(dim):
        state[b] = 1.0
        evolved = np.asarray(oracle(state.copy()), dtype=complex)
        if evolved.shape != (dim,):
            raise DimensionError(
                f"oracle returned shape {evolved.shape} for a length-{dim} state"
            )
        total += (p @ evolved)[b]
        state[b] = 0.0
    return complex(total / dim)

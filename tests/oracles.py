"""Slow or plain-numpy reference computations the tests hold the library's
kernels to.

The Pauli oracles work from dense Pauli matrices (``pauli_matrix``), one
string at a time, and share no code with the per-qubit transform behind
``pauli_coefficients``, ``coefficient_matrix`` and the extraction routes.
The others are one-line numpy definitions: the normalized inner product,
the identity and off-diagonal weights, and the error channel formed with
its ``D**4``-entry lift. ``coefficient_document_text`` is the plain
``json`` text of a coefficient matrix file, and ``stim_chain_text`` the text
of a stim chain, each number formatted by ``%r``.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Callable

import numpy as np

from paulinoise import (
    DimensionError,
    PauliNoiseModel,
    pauli_basis,
    pauli_matrix,
    qubit_count,
    validate_label,
)
from paulinoise.channels import superoperator_dims
from paulinoise.paulis import PAULI_ALPHABET


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """``Tr(a^dag b) / D``, ``D`` the dimension of ``a``: Pauli strings are
    orthonormal under it, and so are the pairs ``kron(P, Q.conj())`` at the
    superoperator dimension."""
    a = np.asarray(a, dtype=complex)
    return complex(np.vdot(a, b) / a.shape[0])


def identity_weight(s: np.ndarray) -> complex:
    """``w_II = Tr(s) / D^2``, the entanglement fidelity of a superoperator
    with the identity channel."""
    s = np.asarray(s, dtype=complex)
    return complex(np.trace(s) / s.shape[0])


def off_diagonal_weight(w: np.ndarray) -> float:
    """``sum_{P != Q} |w_PQ|^2`` of a coefficient matrix."""
    w = np.asarray(w, dtype=complex)
    return float(np.sum(np.abs(w) ** 2) - np.sum(np.abs(np.diagonal(w)) ** 2))


def lifted_error_channel(s: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """``s @ kron(a, a.conj())`` with ``a = u0^dag``: ``s`` after conjugation
    by the target's adjoint, through the lift of that adjoint."""
    a = np.asarray(u0, dtype=complex).conj().T
    return np.asarray(s, dtype=complex) @ np.kron(a, a.conj())


def pauli_pair_diagonal(s: np.ndarray) -> np.ndarray:
    """Diagonal Pauli-pair coefficients ``<kron(P, P.conj()), s>`` for every
    Pauli string ``P``, in basis index order.

    Computed as the identity weight of ``P``-twirled channels, without the
    full coefficient matrix:

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


def coefficient_document_text(w: np.ndarray, meta: dict[str, str]) -> str:
    """The text of a coefficient matrix file holding ``w``: ``json.dumps``
    of the document with ``data`` a list of ``[re, im]`` pairs, row-major,
    every part formatted on its own."""
    w = np.asarray(w, dtype=complex)
    document = {
        "format_version": 1,
        "kind": "coefficient_matrix",
        "n": (w.shape[0].bit_length() - 1) // 2,
        "data": [[z.real, z.imag] for z in w.reshape(-1).tolist()],
        "meta": meta,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _target_table(first: int, count: int) -> list[str]:
    """The chain targets of every string on qubits ``first .. first + count
    - 1``, in index order, each target led by a space (``" X3 Z4"``)."""
    choices = [
        [""] + [f" {ch}{q}" for ch in PAULI_ALPHABET[1:]] for q in range(first, first + count)
    ]
    return ["".join(targets) for targets in itertools.product(*choices)]


def stim_chain_text(model: PauliNoiseModel) -> str:
    """The stim chain of ``model``, each conditional probability formatted
    by a ``%r`` template: one line per positive non-identity entry, in
    index order."""
    kept = np.flatnonzero(model.probs[1:] > 0.0) + 1
    if not kept.size:
        return ""
    probs = model.probs[kept]
    with np.errstate(all="ignore"):
        denominator = 1.0 - np.concatenate(([0.0], np.cumsum(probs[:-1])))
        conditional = np.where(
            denominator <= 1e-15, 1.0, np.minimum(probs / denominator, 1.0)
        )
    low = model.n // 2
    high_table = _target_table(0, model.n - low)
    low_table = _target_table(model.n - low, low)
    values: list[Any] = [None] * (3 * kept.size)
    values[0::3] = conditional.tolist()
    values[1::3] = [high_table[i] for i in (kept >> (2 * low)).tolist()]
    values[2::3] = [low_table[i] for i in (kept & (4**low - 1)).tolist()]
    template = "CORRELATED_ERROR(%r)%s%s\n" + "ELSE_CORRELATED_ERROR(%r)%s%s\n" * (
        kept.size - 1
    )
    return template % tuple(values)

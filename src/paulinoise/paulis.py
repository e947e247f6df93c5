"""Pauli-string labels, their dense matrices, and the per-qubit Pauli
transform.

Conventions used consistently across the package:

* An ``n``-qubit Pauli string is an ``n``-character label over the alphabet
  ``IXYZ`` with qubit 0 written leftmost.
* Labels are ordered by their base-4 index (``I=0, X=1, Y=2, Z=3``) with
  qubit 0 as the most significant digit, so ``pauli_basis(2)`` starts with
  ``II, IX, IY, IZ`` and ends with ``ZZ``.
* Basis matrices carry no global phase. ``Y`` is materialized directly as
  ``[[0, -1j], [1j, 0]]``, which makes every basis element self-adjoint and
  involutory.
* Inner products are ``Tr(a^dag b)`` divided by the matrix dimension. Under
  that normalization the Pauli strings form an orthonormal family and the
  expansion coefficients of a unitary ``U`` are ``u_P = Tr(P U) / D``.
* Operator and superoperator expansions go through :func:`_pauli_transform`,
  which applies one small map per qubit index group instead of one trace per
  string: ``O(n 4^n)`` for an operator, ``O(n 16^n)`` for a superoperator's
  coefficient matrix, ``O(16^n)`` for its diagonal alone, and no basis stack.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

from .errors import DimensionError, PhysicalityError, SizeLimitError

PAULI_ALPHABET = "IXYZ"

#: Maps each label character to its base-4 digit, and each digit back.
_DIGITS = str.maketrans(PAULI_ALPHABET, "0123")
_LETTERS = np.frombuffer(PAULI_ALPHABET.encode("ascii"), dtype=np.uint8)

# Qubit caps, each checked once where a size enters the package; no caller
# can raise one. Below them, the one tolerance every route shares.

#: Bounds every dense superoperator (``16**n`` complex entries, 16 MiB at 5
#: qubits): the channel route, ``pauli_channel``, and coefficient matrix
#: files, written by ``--full-coeffs`` or read back.
DEFAULT_SUPEROP_MAX_QUBITS = 5

#: Bounds a model's probability vector (``4**n`` doubles, 128 MiB at 12
#: qubits): the unitary and ensemble routes, models built or read back and
#: ``random_unitary``; halved, it bounds ``lift_unitary``, whose ``16**n``
#: entries match the vector, and :func:`pauli_basis`, whose ``4**n`` labels
#: are Python strings.
MAX_MODEL_QUBITS = 12

#: Bounds :func:`pauli_labels`: a 31-qubit index still fits in int64.
MAX_LABEL_QUBITS = 31

#: How far any input or result may stray from physical and still be rounding.
DEFAULT_TOL = 1e-9

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

#: Row ``a`` is ``conj(p_a)`` flattened and halved: contracted with one
#: qubit's flattened index pair ``(row, col)`` it yields that qubit's factor
#: of ``Tr(P^dag m) / D``, and the halves multiply up to ``1 / D``.
_PAIR_MAP = np.stack([_SINGLE[ch].conj().reshape(-1) for ch in PAULI_ALPHABET]) / 2

#: Row ``a`` is ``outer(conj(p_a), p_a)`` flattened and quartered: contracted
#: with one qubit's index group ``(i, j, k, l)`` of a superoperator
#: ``s[(i, k), (j, l)]`` it yields that qubit's factor of the diagonal
#: coefficient ``w_PP``, and the quarters multiply up to ``1 / D**2``.
_DIAG_MAP = np.stack(
    [np.outer(_SINGLE[ch].conj(), _SINGLE[ch]).reshape(-1) for ch in PAULI_ALPHABET]
) / 4


def check_qubits(n: int, cap: int) -> int:
    """Return ``n`` as a plain ``int`` if it lies in ``[1, cap]``. Raise
    :class:`DimensionError` if it is not an integer (a ``bool`` is not one)
    and :class:`SizeLimitError` if it is out of range."""
    try:
        count = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        count = None
    if count is None:
        raise DimensionError(f"qubit count must be an integer, got {n!r}")
    n = count
    if not 1 <= n <= cap:
        raise SizeLimitError(
            f"qubit count {n} is outside the supported range [1, {cap}]"
        )
    return n


def mapping_qubits(labels: Iterable[str], cap: int, noun: str) -> int:
    """The qubit count that the labels of a ``noun`` mapping share, held to
    ``[1, cap]``; :class:`DimensionError` if there are no labels or their
    lengths differ."""
    lengths = {len(validate_label(label)) for label in labels}
    if not lengths:
        raise DimensionError(f"{noun} mapping is empty")
    if len(lengths) != 1:
        raise DimensionError(f"{noun} mapping mixes labels of different lengths")
    return check_qubits(lengths.pop(), cap)


def check_levels(dim: int, cap: int) -> None:
    """Raise :class:`SizeLimitError` unless ``dim`` levels fit in ``cap``
    qubits. ``dim`` need not be a power of 2, so a space with leakage levels
    is held to the same cap."""
    if dim > 2**cap:
        raise SizeLimitError(
            f"dimension {dim} exceeds the supported {2**cap} levels ({cap} qubits)"
        )


def square_matrix(m: np.ndarray, noun: str = "operator") -> np.ndarray:
    """``m`` as a complex array; :class:`DimensionError` naming ``noun``
    unless it is a square matrix. The one shape check of every matrix input."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square {noun}, got shape {m.shape}")
    return m


def validate_label(label: str) -> str:
    """Return ``label`` unchanged if it is a well-formed Pauli string label."""
    if not isinstance(label, str) or len(label) == 0:
        raise ValueError("Pauli label must be a non-empty string")
    # Stripping every alphabet letter from both ends leaves nothing exactly
    # when all characters are letters; the offenders are listed on failure.
    if label.strip(PAULI_ALPHABET):
        bad = set(label) - set(PAULI_ALPHABET)
        raise ValueError(
            f"Pauli label {label!r} contains invalid characters {sorted(bad)}; "
            f"the allowed alphabet is {PAULI_ALPHABET!r}"
        )
    return label


def label_to_index(label: str) -> int:
    """Base-4 index of ``label``, qubit 0 (leftmost character) most significant."""
    return int(validate_label(label).translate(_DIGITS), 4)


def index_to_label(index: int, n: int) -> str:
    """Inverse of :func:`label_to_index` for ``n``-qubit labels."""
    if n < 1:
        raise ValueError("qubit count must be at least 1")
    if not 0 <= index < 4**n:
        raise ValueError(f"index {index} is out of range for {n} qubit(s)")
    chars = []
    for _ in range(n):
        index, digit = divmod(index, 4)
        chars.append(PAULI_ALPHABET[digit])
    return "".join(reversed(chars))


def pauli_labels(indices: np.ndarray, n: int) -> list[str]:
    """Labels of the ``n``-qubit strings at ``indices``, in the order given.

    The one place labels are built in bulk: each index is split into its
    base-4 digits at once and the digits are read as letters, so the cost is
    a few array passes plus one slice per label. Indices must lie in
    ``[0, 4**n)``, and ``n`` in ``[1, MAX_LABEL_QUBITS]``.
    """
    check_qubits(n, MAX_LABEL_QUBITS)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= 4**n):
        raise ValueError(f"indices must lie in [0, {4**n}) for {n} qubit(s)")
    shifts = np.arange(2 * n - 2, -1, -2)
    text = _LETTERS[(idx[:, None] >> shifts) & 3].tobytes().decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)]


def pauli_basis(n: int) -> list[str]:
    """All ``4**n`` Pauli string labels on ``n`` qubits, in index order.

    The first label is the identity string ``"I" * n``. Qubit counts above
    ``MAX_MODEL_QUBITS // 2`` are rejected to keep dense enumeration affordable.
    """
    check_qubits(n, MAX_MODEL_QUBITS // 2)
    return pauli_labels(np.arange(4**n), n)


def pauli_qubit_count(count: int) -> int:
    """The ``n >= 1`` with ``4**n == count``, for a vector or matrix side
    indexed by ``n``-qubit strings; :class:`DimensionError` if there is none."""
    n = max((int(count).bit_length() - 1) // 2, 1)
    if 4**n != count:
        raise DimensionError(f"size {count} is not 4**n for any n >= 1")
    return n


def pauli_matrix(label: str) -> np.ndarray:
    """Dense ``2**n x 2**n`` matrix for the Pauli string ``label``.

    Kronecker product of single-qubit matrices with qubit 0 (the leftmost
    character) as the first factor.
    """
    validate_label(label)
    out = _SINGLE[label[0]]
    for ch in label[1:]:
        out = np.kron(out, _SINGLE[ch])
    return out


def qubit_count(dim: int) -> int:
    """Qubit count for a Hilbert space dimension, which must be a power of 2."""
    n = int(dim).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise DimensionError(
            f"dimension {dim} is not a power of 2; for embedded computational"
            " subspaces project out leakage first"
        )
    return n


def _pauli_transform(
    x: np.ndarray, groups: list[tuple[int, ...]], pmap: np.ndarray = _PAIR_MAP
) -> np.ndarray:
    """Pauli expansion of ``x`` over groups of qubit indices, in basis index order.

    ``x`` is read as binary indices in row-major order, ``len(pmap[0]) ==
    2**len(group)`` of them per group. Each entry of ``groups`` names the
    positions of the indices of one Pauli factor, and contracting them with
    ``pmap`` turns them into that factor's letter; factors appear in the
    result leftmost first. With ``_PAIR_MAP`` an operator ``m[i, j]`` on
    ``n`` qubits pairs ``(i_q, j_q)`` and gives ``Tr(P^dag m) / 2**n`` for
    every string ``P``; with ``_DIAG_MAP`` each group of four indices shrinks
    to one letter, so every group divides the size by 4.
    """
    order = [axis for group in groups for axis in group]
    t = np.asarray(x).reshape((2,) * len(order)).transpose(order)
    for _ in groups:
        # Contract the leading factor and append its Pauli index last; after
        # every group the factors are back in their original order.
        t = t.reshape(pmap.shape[1], -1).T @ pmap.T
    return t.reshape(-1)


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of ``u^dag u`` from the identity; inf or
    NaN, without a warning, when ``u^dag u`` overflows."""
    u = square_matrix(u, "matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = u.conj().T @ u
        return float(np.max(np.abs(gram - np.eye(u.shape[0]))))


def require_unitary(
    u: np.ndarray,
    tol: float = DEFAULT_TOL,
    name: str = "operator",
) -> np.ndarray:
    """Return ``u`` as a complex array after checking unitarity within ``tol``."""
    u = np.asarray(u, dtype=complex)
    defect = unitarity_defect(u)
    if not np.isfinite(defect) or defect > tol:
        raise PhysicalityError(
            f"{name} is not unitary within tolerance {tol:g} (defect {defect:.3e})"
        )
    return u

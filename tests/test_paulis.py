"""Label bookkeeping, dense Pauli matrices, and the per-qubit transform."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import inner

from paulinoise import (
    DimensionError,
    PhysicalityError,
    SizeLimitError,
    index_to_label,
    label_to_index,
    pauli_basis,
    pauli_labels,
    pauli_matrix,
)
from paulinoise.paulis import (
    _pauli_transform,
    check_qubits,
    pauli_qubit_count,
    qubit_count,
    require_unitary,
    unitarity_defect,
)


def _operator_pairs(n):
    return [(q, n + q) for q in range(n)]


def test_basis_order_one_qubit():
    assert pauli_basis(1) == ["I", "X", "Y", "Z"]


def test_basis_order_two_qubits():
    labels = pauli_basis(2)
    assert len(labels) == 16
    assert labels[:4] == ["II", "IX", "IY", "IZ"]
    assert labels[4] == "XI"
    assert labels[-1] == "ZZ"


def test_basis_order_three_qubits():
    labels = pauli_basis(3)
    assert len(labels) == 64
    assert labels[0] == "III"
    assert labels[1] == "IIX"
    assert labels[4] == "IXI"
    assert labels[16] == "XII"
    assert labels[-1] == "ZZZ"


def test_label_index_round_trip_exhaustive():
    for n in range(1, 4):
        for i in range(4**n):
            assert label_to_index(index_to_label(i, n)) == i


@given(st.text(alphabet="IXYZ", min_size=1, max_size=5))
def test_label_round_trip_property(label):
    assert index_to_label(label_to_index(label), len(label)) == label


def test_invalid_labels_rejected():
    for bad in ["", "A", "IXQ", "ixz", "I X"]:
        with pytest.raises(ValueError):
            label_to_index(bad)
    with pytest.raises(ValueError):
        index_to_label(16, 2)
    with pytest.raises(ValueError):
        index_to_label(0, 0)


def test_basis_qubit_cap():
    with pytest.raises(SizeLimitError, match=r"\[1, 6\]"):
        pauli_basis(7)
    with pytest.raises(SizeLimitError):
        pauli_basis(0)


def test_pauli_basis_lists_every_label_in_index_order():
    for n in range(1, 7):
        assert pauli_basis(n) == pauli_labels(np.arange(4**n), n)


def test_pauli_labels_equal_index_to_label():
    for n in range(1, 6):
        assert pauli_labels(np.arange(4**n), n) == [index_to_label(i, n) for i in range(4**n)]
    rng = np.random.default_rng(3)
    for n in (7, 12, 31):
        # Unsorted, repeated and extreme indices keep their order.
        indices = np.concatenate([rng.integers(0, 4**n, size=200), [4**n - 1, 0, 0]])
        assert pauli_labels(indices, n) == [index_to_label(int(i), n) for i in indices]
    assert pauli_labels(np.array([], dtype=int), 3) == []
    for bad in ([-1], [16]):
        with pytest.raises(ValueError):
            pauli_labels(np.array(bad), 2)
    with pytest.raises(SizeLimitError):
        pauli_labels(np.arange(4), 32)


def test_pauli_qubit_count():
    assert [pauli_qubit_count(4**n) for n in range(1, 8)] == list(range(1, 8))
    for bad in (-4, 0, 1, 2, 8, 5, 64 * 2):
        with pytest.raises(DimensionError):
            pauli_qubit_count(bad)


def test_single_qubit_matrices():
    np.testing.assert_array_equal(pauli_matrix("I"), np.eye(2))
    np.testing.assert_array_equal(pauli_matrix("X"), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(pauli_matrix("Y"), [[0, -1j], [1j, 0]])
    np.testing.assert_array_equal(pauli_matrix("Z"), [[1, 0], [0, -1]])


def test_xz_matrix_hand_expansion():
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(pauli_matrix("XZ"), expected)


def test_qubit_zero_is_most_significant_factor():
    np.testing.assert_array_equal(
        pauli_matrix("XI"), np.kron(pauli_matrix("X"), np.eye(2))
    )
    np.testing.assert_array_equal(
        pauli_matrix("IX"), np.kron(np.eye(2), pauli_matrix("X"))
    )


def test_hermitian_and_involutory():
    for n in (1, 2, 3):
        eye = np.eye(2**n)
        for label in pauli_basis(n):
            p = pauli_matrix(label)
            np.testing.assert_array_equal(p, p.conj().T)
            np.testing.assert_array_equal(p @ p, eye)


def test_orthonormality_all_pairs():
    for n in (1, 2, 3):
        stack = np.stack([pauli_matrix(label) for label in pauli_basis(n)])
        gram = np.einsum("pij,qij->pq", stack.conj(), stack) / 2**n
        np.testing.assert_allclose(gram, np.eye(4**n), atol=1e-12)


def test_transform_maps_each_pauli_string_to_its_unit_vector():
    # Orthonormality as the kernel sees it: row p of the transformed stack is
    # the p-th unit vector, in basis index order.
    for n in (1, 2, 3, 4):
        rows = [
            _pauli_transform(pauli_matrix(label), _operator_pairs(n))
            for label in pauli_basis(n)
        ]
        np.testing.assert_allclose(np.array(rows), np.eye(4**n), atol=1e-15)


def test_check_qubits():
    assert check_qubits(1, 1) == 1
    assert check_qubits(6, 6) == 6
    for n, cap in ((0, 6), (7, 6), (-1, 3)):
        with pytest.raises(SizeLimitError):
            check_qubits(n, cap)
    assert type(check_qubits(np.int64(2), 6)) is int
    for n in (True, 2.0, "2", None):
        with pytest.raises(DimensionError, match="must be an integer"):
            check_qubits(n, 6)


def test_completeness_reconstructs_arbitrary_matrices():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        dim = 2**n
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        labels = pauli_basis(n)
        via_traces = [inner(pauli_matrix(label), m) for label in labels]
        via_transform = _pauli_transform(m, _operator_pairs(n))
        for amps in (via_traces, via_transform):
            rebuilt = sum(a * pauli_matrix(label) for a, label in zip(amps, labels))
            np.testing.assert_allclose(rebuilt, m, atol=1e-12)


def test_qubit_count():
    assert qubit_count(2) == 1
    assert qubit_count(4) == 2
    assert qubit_count(8) == 3
    for bad in (0, 1, 3, 6, 12):
        with pytest.raises(DimensionError):
            qubit_count(bad)


def test_unitarity_checks():
    assert unitarity_defect(np.eye(3)) == 0.0
    require_unitary(np.eye(2))
    require_unitary(np.eye(2) * (1 + 1e-10))
    with pytest.raises(PhysicalityError):
        require_unitary(np.eye(2) * 1.001)
    with pytest.raises(PhysicalityError):
        require_unitary(np.array([[1.0, 0.0], [0.0, np.nan]]))
    with pytest.raises(DimensionError):
        require_unitary(np.zeros((2, 3)))

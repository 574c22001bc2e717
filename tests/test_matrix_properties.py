"""Unit tests for repro.matrix.properties."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.matrix.conversion import as_csc
from repro.matrix.properties import (
    col_nnz,
    density,
    is_diagonal,
    is_fully_diagonal,
    is_permutation,
    nnz,
    row_nnz,
    sparsity,
)
from repro.matrix.random import diagonal_matrix, permutation_matrix


class TestCounts:
    def test_nnz(self):
        assert nnz(np.array([[1, 0], [2, 3]])) == 3

    def test_nnz_ignores_explicit_zeros(self):
        coo = sp.coo_array(
            (np.array([0.0, 1.0]), (np.array([0, 0]), np.array([0, 1]))),
            shape=(1, 2),
        )
        assert nnz(coo) == 1

    def test_row_nnz(self):
        counts = row_nnz(np.array([[1, 1, 0], [0, 0, 0], [1, 0, 1]]))
        np.testing.assert_array_equal(counts, [2, 0, 2])

    def test_col_nnz(self):
        counts = col_nnz(np.array([[1, 1, 0], [0, 0, 0], [1, 0, 1]]))
        np.testing.assert_array_equal(counts, [2, 1, 1])

    @pytest.mark.parametrize(
        "matrix",
        [
            np.zeros((0, 4)),
            np.zeros((3, 0)),
            np.array([[0, 2, 0, 0]]),
            np.ones((5, 1)),
            sp.coo_array(
                (np.array([1.0, 0.0, -1.0, 1.0, 3.0]),
                 (np.array([0, 1, 2, 2, 2]), np.array([1, 1, 0, 0, 3]))),
                shape=(3, 5),
            ),
            sp.csc_array(np.eye(6)[::-1]),
            sp.csr_matrix(np.tri(7, 4)),
        ],
        ids=["no_rows", "no_cols", "row", "col", "coo", "csc", "csr_matrix"],
    )
    def test_col_nnz_equals_csc_count(self, matrix):
        counts = col_nnz(matrix)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, np.diff(as_csc(matrix).indptr))

    def test_row_col_sums_agree(self):
        matrix = np.array([[1, 0, 2], [0, 3, 0]])
        assert row_nnz(matrix).sum() == col_nnz(matrix).sum() == nnz(matrix)


class TestSparsity:
    def test_basic(self):
        assert sparsity(np.array([[1, 0], [0, 0]])) == 0.25

    def test_empty_shape(self):
        assert sparsity(np.zeros((0, 3))) == 0.0

    def test_dense(self):
        assert sparsity(np.ones((3, 3))) == 1.0

    def test_density_alias(self):
        matrix = np.array([[1, 0], [1, 1]])
        assert density(matrix) == sparsity(matrix)


class TestDiagonal:
    def test_identity_is_diagonal(self):
        assert is_diagonal(np.eye(4))

    def test_off_diagonal_not(self):
        matrix = np.eye(4)
        matrix[0, 1] = 1
        assert not is_diagonal(matrix)

    def test_partial_diagonal_is_diagonal_but_not_fully(self):
        matrix = np.diag([1.0, 0.0, 2.0])
        assert is_diagonal(matrix)
        assert not is_fully_diagonal(matrix)

    def test_fully_diagonal(self):
        assert is_fully_diagonal(diagonal_matrix(10, seed=1))

    def test_rectangular_not_fully_diagonal(self):
        assert not is_fully_diagonal(np.zeros((2, 3)))

    def test_all_zero_square_is_diagonal(self):
        assert is_diagonal(np.zeros((3, 3)))


class TestPermutation:
    def test_random_permutation(self):
        assert is_permutation(permutation_matrix(20, seed=3))

    def test_identity(self):
        assert is_permutation(np.eye(5))

    def test_duplicate_column_rejected(self):
        matrix = np.zeros((2, 2))
        matrix[0, 0] = matrix[1, 0] = 1
        assert not is_permutation(matrix)

    def test_rectangular_rejected(self):
        assert not is_permutation(np.ones((2, 3)))

    def test_two_per_row_rejected(self):
        matrix = np.zeros((2, 2))
        matrix[0, :] = 1
        assert not is_permutation(matrix)

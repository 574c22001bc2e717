"""Unit tests for the structured random generators."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.matrix.properties import (
    col_nnz,
    is_fully_diagonal,
    is_permutation,
    row_nnz,
    sparsity,
)
from repro.matrix.random import (
    banded_matrix,
    coords_structure,
    diagonal_matrix,
    one_hot_block,
    outer_product_pair,
    permutation_matrix,
    power_law_columns,
    random_sparse,
    selection_matrix,
    single_nnz_per_row,
)


class TestRandomSparse:
    def test_expected_density(self):
        matrix = random_sparse(400, 400, 0.05, seed=1)
        assert 0.04 < sparsity(matrix) < 0.06

    def test_dense_path(self):
        matrix = random_sparse(100, 100, 0.9, seed=2)
        assert 0.85 < sparsity(matrix) < 0.95

    def test_deterministic(self):
        a = random_sparse(50, 50, 0.1, seed=3)
        b = random_sparse(50, 50, 0.1, seed=3)
        assert (a != b).nnz == 0

    def test_zero_sparsity(self):
        assert random_sparse(10, 10, 0.0, seed=4).nnz == 0

    def test_ones_values(self):
        matrix = random_sparse(30, 30, 0.2, seed=5, values="ones")
        assert set(np.unique(matrix.data)) == {1}

    def test_invalid_sparsity(self):
        with pytest.raises(ShapeError):
            random_sparse(5, 5, 1.5)

    def test_no_explicit_zero_values(self):
        matrix = random_sparse(50, 50, 0.3, seed=6)
        assert np.all(matrix.data != 0)


class TestSingleNnzPerRow:
    def test_exactly_one_per_row(self):
        matrix = single_nnz_per_row(200, 50, seed=7)
        np.testing.assert_array_equal(row_nnz(matrix), np.ones(200))

    def test_weighted_columns(self):
        weights = np.zeros(10)
        weights[3] = 1.0
        matrix = single_nnz_per_row(40, 10, seed=8, column_weights=weights)
        assert col_nnz(matrix)[3] == 40

    def test_weight_shape_validated(self):
        with pytest.raises(ShapeError):
            single_nnz_per_row(5, 10, column_weights=np.ones(3))


class TestPowerLawColumns:
    def test_skewed_head(self):
        matrix = power_law_columns(2000, 100, total_nnz=3000, alpha=1.5, seed=9)
        counts = col_nnz(matrix)
        assert counts[0] > counts[50]
        assert counts[0] > counts[99]

    def test_total_close_to_requested(self):
        matrix = power_law_columns(5000, 200, total_nnz=2000, seed=10)
        assert 0.9 * 2000 <= matrix.nnz <= 2000

    def test_cell_drawn_256_times_is_kept(self):
        # Seed 5 draws row 2 exactly 256 times; summed as int8 that count
        # wraps to 0 and the cell was eliminated.
        matrix = power_law_columns(4, 1, 1024, seed=5)
        np.testing.assert_array_equal(row_nnz(matrix), [1, 1, 1, 1])
        assert matrix.data.dtype == np.int8
        assert (matrix.data == 1).all()


class TestCoordsStructure:
    def test_any_repeat_count_is_one_nonzero(self):
        counts = [256, 512, 1, 255]
        rows = np.repeat(np.arange(4), counts)
        matrix = coords_structure(rows, np.zeros_like(rows), (4, 2))
        assert matrix.nnz == 4
        np.testing.assert_array_equal(matrix.indices, [0, 0, 0, 0])
        assert matrix.data.dtype == np.int8
        assert (matrix.data == 1).all()
        assert matrix.has_canonical_format


class TestPermutationAndSelection:
    def test_permutation_is_permutation(self):
        assert is_permutation(permutation_matrix(64, seed=11))

    def test_selection_extracts_rows(self):
        p = selection_matrix([4, 1], 6)
        assert p.shape == (2, 6)
        x = np.arange(24.0).reshape(6, 4) + 1
        extracted = (p.astype(float) @ x)
        np.testing.assert_array_equal(extracted[0], x[4])
        np.testing.assert_array_equal(extracted[1], x[1])

    def test_selection_bounds_checked(self):
        with pytest.raises(ShapeError):
            selection_matrix([7], 6)


class TestStructuredShapes:
    def test_diagonal(self):
        assert is_fully_diagonal(diagonal_matrix(16, seed=12))

    def test_banded_nnz(self):
        matrix = banded_matrix(10, 1)
        assert matrix.nnz == 10 + 2 * 9  # main diagonal + two off-diagonals

    def test_banded_zero_bandwidth_is_identity(self):
        matrix = banded_matrix(5, 0)
        assert is_fully_diagonal(matrix)

    def test_one_hot(self):
        block = one_hot_block(30, 4, seed=13)
        np.testing.assert_array_equal(row_nnz(block), np.ones(30))
        assert block.shape == (30, 4)

    def test_outer_pair_product_shapes(self):
        column, row = outer_product_pair(8, dense_index=2)
        assert col_nnz(column)[2] == 8
        assert row_nnz(row)[2] == 8
        assert column.nnz == row.nnz == 8

    def test_outer_pair_index_validated(self):
        with pytest.raises(ShapeError):
            outer_product_pair(4, dense_index=4)


class TestInt32Indices:
    """Generators build int32 CSR indices whenever shape and nnz fit; the
    structures (hence fingerprints, which hash int64-normalized indices)
    are the ones the int64 construction produced."""

    #: (seed, fingerprint) of the int64-index construction of each input.
    RANDOM_SPARSE = {
        0: "2e5fc8c8719b0516f0aa24cddd68a384c51b802d",
        1: "4a23a36d154b711e311581a9ef552254369e3608",
        2: "6eeb76bd1deb5d7fb2b8af06ad50e4576568d4ce",
    }
    RANDOM_ONES = {
        0: "73b4fa10152a31972c8d79edbd3d4536a400a540",
        1: "20f0ea5e827177fabf1b4623f4e95e8e71552b91",
        2: "3732e928ce9f0b5a518db2e1244ae8d1324c91fa",
    }
    SELECTION = {
        0: "131ec6cc5478381af9c63f4f841bf2e4e0135567",
        1: "76b18596a4e6d7ea680f12e8f27a711815d49aae",
        2: "676e0f96383ca28b9c7222041a6ed191cbd482dd",
    }

    @staticmethod
    def _assert_int32(matrix):
        assert matrix.indices.dtype == np.int32
        assert matrix.indptr.dtype == np.int32

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sparse_ultra_sparse_path(self, seed):
        from repro.catalog.fingerprint import fingerprint_matrix

        matrix = random_sparse(400, 300, 0.1, seed=seed)
        self._assert_int32(matrix)
        assert matrix.has_canonical_format and matrix.data.dtype == np.float64
        assert fingerprint_matrix(matrix) == self.RANDOM_SPARSE[seed]
        ones = random_sparse(50, 70, 0.02, seed=seed, values="ones")
        self._assert_int32(ones)
        assert ones.data.dtype == np.int8
        assert fingerprint_matrix(ones) == self.RANDOM_ONES[seed]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_selection_matrix(self, seed):
        from repro.catalog.fingerprint import fingerprint_matrix

        selected = np.random.default_rng(seed).integers(0, 40, size=25)
        matrix = selection_matrix(selected, 40)
        self._assert_int32(matrix)
        assert matrix.has_canonical_format and matrix.data.dtype == np.int8
        assert fingerprint_matrix(matrix) == self.SELECTION[seed]
        dense = np.zeros((25, 40), dtype=np.int8)
        dense[np.arange(25), selected] = 1
        np.testing.assert_array_equal(matrix.toarray(), dense)

    def test_small_examples(self):
        self._assert_int32(selection_matrix([3, 1, 7], 10))
        self._assert_int32(random_sparse(400, 300, 0.1))

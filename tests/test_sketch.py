"""Unit tests for the MNC sketch data structure and construction."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.sketch import MNCSketch
from repro.errors import SketchError
from repro.estimators import MetaACEstimator, MNCEstimator, SamplingEstimator
from repro.matrix.conversion import as_csr
from repro.matrix.random import (
    diagonal_matrix,
    permutation_matrix,
    random_sparse,
    single_nnz_per_row,
)


class TestConstruction:
    def test_counts_match_matrix(self):
        matrix = as_csr(np.array([[1, 0, 2], [0, 0, 0], [3, 4, 5]]))
        sketch = MNCSketch.from_matrix(matrix)
        np.testing.assert_array_equal(sketch.hr, [2, 0, 3])
        np.testing.assert_array_equal(sketch.hc, [2, 1, 2])
        assert sketch.total_nnz == 5

    def test_shape_and_cells(self):
        sketch = MNCSketch.from_matrix(np.zeros((4, 7)))
        assert sketch.shape == (4, 7)
        assert sketch.nrows == 4
        assert sketch.ncols == 7
        assert sketch.cells == 28

    def test_sparsity(self):
        sketch = MNCSketch.from_matrix(np.eye(4))
        assert sketch.sparsity == 0.25

    def test_summary_statistics(self):
        matrix = np.array([
            [1, 1, 1, 0],  # 3 of 4 > n/2 -> half-full row
            [1, 0, 0, 0],
            [0, 0, 0, 0],
        ])
        sketch = MNCSketch.from_matrix(matrix)
        assert sketch.max_hr == 3
        assert sketch.max_hc == 2
        assert sketch.nnz_rows == 2
        assert sketch.nnz_cols == 3
        assert sketch.rows_half_full == 1
        assert sketch.rows_single == 1
        assert sketch.cols_single == 2

    def test_extension_vectors_built_when_informative(self):
        # Row 0 has two non-zeros, so extensions carry information.
        matrix = np.array([[1, 1, 0], [0, 0, 1]])
        sketch = MNCSketch.from_matrix(matrix)
        assert sketch.her is not None
        assert sketch.hec is not None

    def test_extension_vectors_skipped_when_trivial(self):
        # All rows and columns hold at most one non-zero: Theorem 3.1 is
        # already exact and extensions are omitted.
        sketch = MNCSketch.from_matrix(np.eye(5))
        assert sketch.her is None
        assert sketch.hec is None

    def test_extension_semantics(self):
        # her[i] counts row i's non-zeros lying in single-non-zero columns.
        matrix = np.array([
            [1, 1, 0],
            [1, 0, 0],
            [0, 0, 1],
        ])
        sketch = MNCSketch.from_matrix(matrix)
        # Column 1 (1 nnz) and column 2 (1 nnz) are single; column 0 has 2.
        np.testing.assert_array_equal(sketch.her, [1, 0, 1])
        # hec[j] counts column j's non-zeros in single-non-zero rows:
        # rows 1 and 2 are single.
        np.testing.assert_array_equal(sketch.hec, [1, 0, 1])

    def test_without_extensions_flag(self):
        matrix = np.array([[1, 1], [1, 0]])
        sketch = MNCSketch.from_matrix(matrix, with_extensions=False)
        assert not sketch.has_extensions

    def test_without_extensions_view(self):
        matrix = np.array([[1, 1], [1, 0]])
        sketch = MNCSketch.from_matrix(matrix)
        basic = sketch.without_extensions()
        assert not basic.has_extensions
        np.testing.assert_array_equal(basic.hr, sketch.hr)
        # Already-basic sketches pass through unchanged.
        assert basic.without_extensions() is basic

    def test_diagonal_flag(self):
        assert MNCSketch.from_matrix(diagonal_matrix(6, seed=1)).fully_diagonal
        assert not MNCSketch.from_matrix(np.diag([1.0, 0.0, 2.0])).fully_diagonal
        assert not MNCSketch.from_matrix(permutation_matrix(6, seed=2)).fully_diagonal

    def test_empty_matrix(self):
        sketch = MNCSketch.from_matrix(np.zeros((3, 4)))
        assert sketch.total_nnz == 0
        assert sketch.max_hr == 0
        assert sketch.sparsity == 0.0

    def test_zero_dimension(self):
        sketch = MNCSketch.from_matrix(np.zeros((0, 4)))
        assert sketch.total_nnz == 0
        assert sketch.sparsity == 0.0


class TestBuildReadsCsrOnly:
    """Leaf builds from CSR input never transpose to CSC (Section 3.1: one
    scan over the non-zeros)."""

    @pytest.mark.parametrize(
        "build",
        [
            MNCSketch.from_matrix,
            lambda m: MetaACEstimator().build(m),
            lambda m: MNCEstimator().build(m),
            lambda m: SamplingEstimator().build(m),
        ],
        ids=["from_matrix", "meta_ac", "mnc", "sampling"],
    )
    def test_no_csc_transpose(self, monkeypatch, build):
        # A random block beside an identity block: both extensions built.
        matrix = as_csr(sp.block_diag(
            [random_sparse(40, 30, 0.2, seed=5), np.eye(10)], format="csr"
        ))
        sketch = MNCSketch.from_matrix(matrix)
        assert sketch.her is not None and sketch.hec is not None

        def refuse(self, copy=False):
            raise AssertionError("CSR input was transposed to CSC")

        monkeypatch.setattr(sp.csr_array, "tocsc", refuse)
        build(matrix)


class TestValidation:
    def test_inconsistent_totals_rejected(self):
        with pytest.raises(SketchError):
            MNCSketch(shape=(2, 2), hr=np.array([1, 0]), hc=np.array([1, 1]))

    def test_wrong_hr_length_rejected(self):
        with pytest.raises(SketchError):
            MNCSketch(shape=(2, 2), hr=np.array([1]), hc=np.array([1, 0]))

    def test_counts_above_dimension_rejected(self):
        with pytest.raises(SketchError):
            MNCSketch(shape=(2, 2), hr=np.array([3, 0]), hc=np.array([2, 1]))

    def test_negative_counts_rejected(self):
        with pytest.raises(SketchError):
            MNCSketch(shape=(2, 2), hr=np.array([-1, 2]), hc=np.array([1, 0]))

    def test_extension_exceeding_counts_rejected(self):
        with pytest.raises(SketchError):
            MNCSketch(
                shape=(2, 2),
                hr=np.array([1, 1]),
                hc=np.array([1, 1]),
                her=np.array([2, 0]),
            )

    def test_extension_or_zeros_helpers(self):
        sketch = MNCSketch.from_matrix(np.eye(3))
        np.testing.assert_array_equal(sketch.her_or_zeros(), np.zeros(3))
        np.testing.assert_array_equal(sketch.hec_or_zeros(), np.zeros(3))


class TestSizeAccounting:
    def test_size_linear_in_dimensions(self):
        small = MNCSketch.from_matrix(random_sparse(100, 100, 0.1, seed=3))
        large = MNCSketch.from_matrix(random_sparse(1000, 1000, 0.1, seed=4))
        assert large.size_bytes() > small.size_bytes()
        assert large.size_bytes() <= 4 * 1000 * 8 + 100  # four int64 vectors

    def test_permutation_sketch_smaller(self):
        # max(hr) = max(hc) = 1: no extensions -> only two count vectors.
        sketch = MNCSketch.from_matrix(permutation_matrix(500, seed=5))
        assert not sketch.has_extensions
        assert sketch.size_bytes() <= (500 + 500) * 8 + 100

    def test_single_nnz_rows_still_build_extensions_for_skewed_columns(self):
        # max(hr) = 1 but columns collide, so extensions are constructed.
        sketch = MNCSketch.from_matrix(single_nnz_per_row(500, 10, seed=6))
        assert sketch.max_hr == 1
        assert sketch.max_hc > 1
        assert sketch.has_extensions


class TestSyntheticSketch:
    def test_totals_match_target(self):
        rng = np.random.default_rng(1)
        sketch = MNCSketch.synthetic(500, 400, 0.05, rng)
        assert sketch.total_nnz == round(0.05 * 500 * 400)
        assert sketch.shape == (500, 400)
        assert not sketch.exact

    def test_counts_respect_caps(self):
        rng = np.random.default_rng(2)
        sketch = MNCSketch.synthetic(50, 10, 0.95, rng)
        assert sketch.hr.max() <= 10
        assert sketch.hc.max() <= 50
        assert sketch.hr.sum() == sketch.hc.sum()

    def test_fully_dense(self):
        rng = np.random.default_rng(3)
        sketch = MNCSketch.synthetic(20, 30, 1.0, rng)
        assert np.all(sketch.hr == 30)
        assert np.all(sketch.hc == 20)

    def test_empty(self):
        rng = np.random.default_rng(4)
        sketch = MNCSketch.synthetic(20, 30, 0.0, rng)
        assert sketch.total_nnz == 0

    def test_single_row_matrix(self):
        rng = np.random.default_rng(5)
        sketch = MNCSketch.synthetic(1, 100, 0.5, rng)
        assert sketch.hr[0] == 50

    def test_invalid_sparsity(self):
        with pytest.raises(SketchError):
            MNCSketch.synthetic(5, 5, 1.5, np.random.default_rng(6))

    def test_estimates_close_to_real_uniform_matrix(self):
        # A synthetic sketch should estimate products like a sketch of a
        # real uniform matrix of the same sparsity.
        from repro.core.estimate import estimate_product_nnz

        rng = np.random.default_rng(7)
        synthetic_a = MNCSketch.synthetic(300, 200, 0.05, rng)
        synthetic_b = MNCSketch.synthetic(200, 250, 0.05, rng)
        real_a = MNCSketch.from_matrix(random_sparse(300, 200, 0.05, seed=8))
        real_b = MNCSketch.from_matrix(random_sparse(200, 250, 0.05, seed=9))
        synthetic_estimate = estimate_product_nnz(synthetic_a, synthetic_b)
        real_estimate = estimate_product_nnz(real_a, real_b)
        assert synthetic_estimate == pytest.approx(real_estimate, rel=0.15)

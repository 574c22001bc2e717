"""Unit tests for MNC sketch propagation over products (Eq 11-12)."""

import numpy as np
import pytest

from repro.core.propagate import propagate_product, scale_histogram
from repro.core.sketch import COUNT_DTYPE, MNCSketch
from repro.matrix.ops import matmul
from repro.matrix.random import (
    diagonal_matrix,
    permutation_matrix,
    random_sparse,
    single_nnz_per_row,
)


class TestScaleHistogram:
    def test_preserves_total_in_expectation(self, rng):
        histogram = np.array([10, 0, 5, 20], dtype=np.int64)
        totals = [
            scale_histogram(histogram, 70.0, maximum=100, rng=rng).sum()
            for _ in range(300)
        ]
        assert 67 < np.mean(totals) < 73

    def test_zero_entries_stay_zero(self, rng):
        histogram = np.array([10, 0, 5], dtype=np.int64)
        scaled = scale_histogram(histogram, 30.0, maximum=100, rng=rng)
        assert scaled[1] == 0

    def test_zero_target(self, rng):
        histogram = np.array([3, 4], dtype=np.int64)
        assert scale_histogram(histogram, 0.0, maximum=10, rng=rng).sum() == 0

    def test_respects_maximum(self, rng):
        histogram = np.array([1, 1], dtype=np.int64)
        scaled = scale_histogram(histogram, 1000.0, maximum=7, rng=rng)
        assert scaled.max() <= 7


class TestPropagation:
    def test_output_sketch_is_consistent(self, rng):
        a = random_sparse(80, 60, 0.1, seed=1)
        b = random_sparse(60, 70, 0.1, seed=2)
        sketch = propagate_product(
            MNCSketch.from_matrix(a), MNCSketch.from_matrix(b), rng=rng
        )
        assert sketch.shape == (80, 70)
        assert sketch.hr.sum() == sketch.hc.sum() == sketch.total_nnz

    def test_total_close_to_truth(self, rng):
        a = random_sparse(200, 150, 0.05, seed=3)
        b = random_sparse(150, 180, 0.05, seed=4)
        truth = matmul(a, b).nnz
        sketch = propagate_product(
            MNCSketch.from_matrix(a), MNCSketch.from_matrix(b), rng=rng
        )
        assert truth / 1.2 <= sketch.total_nnz <= truth * 1.2

    def test_diagonal_right_identity(self, rng):
        a = random_sparse(50, 40, 0.2, seed=5)
        d = diagonal_matrix(40, seed=6)
        h_a = MNCSketch.from_matrix(a)
        result = propagate_product(h_a, MNCSketch.from_matrix(d), rng=rng)
        assert result is h_a  # Eq 12: exact shallow propagation

    def test_diagonal_left_identity(self, rng):
        d = diagonal_matrix(50, seed=7)
        b = random_sparse(50, 40, 0.2, seed=8)
        h_b = MNCSketch.from_matrix(b)
        result = propagate_product(MNCSketch.from_matrix(d), h_b, rng=rng)
        assert result is h_b

    def test_permutation_left_preserves_totals(self, rng):
        # The *estimate* is exact (Theorem 3.1); the propagated histogram is
        # probabilistically rounded, so the total matches within noise.
        p = permutation_matrix(60, seed=9)
        x = random_sparse(60, 30, 0.25, seed=10)
        sketch = propagate_product(
            MNCSketch.from_matrix(p), MNCSketch.from_matrix(x), rng=rng
        )
        assert abs(sketch.total_nnz - x.nnz) <= 0.1 * x.nnz

    def test_empty_product(self, rng):
        a = np.zeros((10, 5))
        b = random_sparse(5, 8, 0.5, seed=11)
        sketch = propagate_product(
            MNCSketch.from_matrix(a), MNCSketch.from_matrix(b), rng=rng
        )
        assert sketch.total_nnz == 0

    def test_histogram_shape_follows_inputs(self, rng):
        # Rows of A with more non-zeros should map to rows of C with more.
        a = np.zeros((4, 50))
        a[0, :40] = 1  # heavy row
        a[1, :2] = 1
        a[2, 2:4] = 1
        b = random_sparse(50, 60, 0.3, seed=12)
        sketch = propagate_product(
            MNCSketch.from_matrix(a), MNCSketch.from_matrix(b), rng=rng
        )
        assert sketch.hr[0] > sketch.hr[1]
        assert sketch.hr[3] == 0  # empty row stays empty

    def test_chain_propagation_three_matrices(self, rng):
        a = single_nnz_per_row(100, 80, seed=13)
        b = random_sparse(80, 60, 0.1, seed=14)
        c = random_sparse(60, 50, 0.1, seed=15)
        h_ab = propagate_product(
            MNCSketch.from_matrix(a), MNCSketch.from_matrix(b), rng=rng
        )
        h_abc = propagate_product(h_ab, MNCSketch.from_matrix(c), rng=rng)
        truth = matmul(matmul(a, b), c).nnz
        assert truth / 1.5 <= max(h_abc.total_nnz, 1) <= truth * 1.5

    def test_probabilistic_rounding_unbiased_for_ultra_sparse(self):
        # Eq 11 with deterministic rounding would zero out everything.
        a = random_sparse(400, 400, 0.002, seed=16)
        b = random_sparse(400, 400, 0.002, seed=17)
        h_a, h_b = MNCSketch.from_matrix(a), MNCSketch.from_matrix(b)
        totals = [
            propagate_product(h_a, h_b, rng=np.random.default_rng(s)).total_nnz
            for s in range(50)
        ]
        truth = matmul(a, b).nnz
        assert truth * 0.5 < np.mean(totals) < truth * 1.5
        assert any(t > 0 for t in totals)

    def test_exact_flag_cleared_for_generic_products(self, rng):
        a = random_sparse(30, 30, 0.3, seed=18)
        b = random_sparse(30, 30, 0.3, seed=19)
        sketch = propagate_product(
            MNCSketch.from_matrix(a), MNCSketch.from_matrix(b), rng=rng
        )
        assert not sketch.exact

    def test_exact_flag_kept_for_theorem31(self, rng):
        p = permutation_matrix(30, seed=20)
        x = random_sparse(30, 20, 0.3, seed=21)
        sketch = propagate_product(
            MNCSketch.from_matrix(p), MNCSketch.from_matrix(x), rng=rng
        )
        assert sketch.exact


class TestPropagateIntoCallerStorage:
    """``out=`` writes the derived sketch into caller-owned slots (the chain
    DP's workspace) with the bits, and generator draws, of the allocating
    path."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_as_allocating_path(self, seed):
        h_a = MNCSketch.from_matrix(random_sparse(48, 36, 0.12, seed=seed))
        h_b = MNCSketch.from_matrix(random_sparse(36, 44, 0.18, seed=seed + 9))
        rng_fresh, rng_out = np.random.default_rng(seed), np.random.default_rng(seed)
        fresh = propagate_product(h_a, h_b, rng=rng_fresh)
        counts = np.full(48 + 44, -1, dtype=COUNT_DTYPE)
        counts_f64 = np.full(48 + 44, np.nan)
        into = propagate_product(h_a, h_b, rng=rng_out, out=(counts, counts_f64))
        assert into.hr.tobytes() == fresh.hr.tobytes()
        assert into.hc.tobytes() == fresh.hc.tobytes()
        assert into.hr_f64.tobytes() == fresh.hr_f64.tobytes()
        assert into.hc_f64.tobytes() == fresh.hc_f64.tobytes()
        assert np.shares_memory(into.hr, counts) and np.shares_memory(into.hc, counts)
        assert np.shares_memory(into.hc_f64, counts_f64)
        assert not into.hr_f64.flags.writeable
        assert rng_out.random() == rng_fresh.random()  # same draws consumed

    def test_diagonal_operand_leaves_out_untouched(self):
        d = MNCSketch.from_matrix(diagonal_matrix(30, seed=1))
        h = MNCSketch.from_matrix(random_sparse(30, 20, 0.2, seed=2))
        counts = np.full(50, -1, dtype=COUNT_DTYPE)
        counts_f64 = np.full(50, -1.0)
        assert propagate_product(d, h, rng=0, out=(counts, counts_f64)) is h
        assert (counts == -1).all() and (counts_f64 == -1.0).all()

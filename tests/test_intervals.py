"""Tests for the confidence-interval extension."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.intervals import (
    NnzInterval,
    estimate_product_interval,
    interval_from_samples,
)
from repro.core.estimate import (
    estimate_product_nnz,
    product_nnz_lower_bound,
    product_nnz_upper_bound,
)
from repro.core.sketch import MNCSketch
from repro.errors import ShapeError
from repro.matrix.ops import matmul
from repro.matrix.random import (
    permutation_matrix,
    random_sparse,
    single_nnz_per_row,
)


def _sketches(a, b):
    return MNCSketch.from_matrix(a), MNCSketch.from_matrix(b)


class TestProductInterval:
    def test_exact_case_collapses(self):
        p = permutation_matrix(50, seed=1)
        x = random_sparse(50, 30, 0.2, seed=2)
        interval = estimate_product_interval(*_sketches(p, x))
        assert interval.exact
        assert interval.width == 0.0
        assert interval.estimate == x.nnz

    def test_generic_case_has_width(self):
        a = random_sparse(100, 80, 0.1, seed=3)
        b = random_sparse(80, 90, 0.1, seed=4)
        interval = estimate_product_interval(*_sketches(a, b))
        assert not interval.exact
        assert interval.width > 0
        assert interval.lower <= interval.estimate <= interval.upper

    def test_interval_within_theorem32_bounds(self):
        from repro.core.estimate import (
            product_nnz_lower_bound,
            product_nnz_upper_bound,
        )

        a = random_sparse(60, 50, 0.2, seed=5)
        b = random_sparse(50, 60, 0.2, seed=6)
        h_a, h_b = _sketches(a, b)
        interval = estimate_product_interval(h_a, h_b)
        assert interval.lower >= product_nnz_lower_bound(h_a, h_b)
        assert interval.upper <= product_nnz_upper_bound(h_a, h_b)

    def test_coverage_on_uniform_products(self):
        # The 95% interval should contain the truth on a clear majority of
        # uniform random instances (the model matches the data here).
        hits = 0
        trials = 30
        for seed in range(trials):
            a = random_sparse(80, 60, 0.08, seed=100 + seed)
            b = random_sparse(60, 70, 0.08, seed=200 + seed)
            interval = estimate_product_interval(*_sketches(a, b))
            if interval.contains(matmul(a, b).nnz):
                hits += 1
        assert hits >= trials * 0.6

    def test_wider_confidence_wider_interval(self):
        a = random_sparse(80, 60, 0.1, seed=7)
        b = random_sparse(60, 70, 0.1, seed=8)
        h_a, h_b = _sketches(a, b)
        narrow = estimate_product_interval(h_a, h_b, confidence=0.5)
        wide = estimate_product_interval(h_a, h_b, confidence=0.99)
        assert wide.width >= narrow.width

    def test_empty_operand(self):
        a = MNCSketch.from_matrix(np.zeros((5, 4)))
        b = MNCSketch.from_matrix(np.ones((4, 3)))
        interval = estimate_product_interval(a, b)
        assert interval.estimate == 0.0
        assert interval.exact

    def test_invalid_confidence(self):
        a = MNCSketch.from_matrix(np.eye(3))
        with pytest.raises(ShapeError):
            estimate_product_interval(a, a, confidence=1.5)

    def test_shape_mismatch(self):
        a = MNCSketch.from_matrix(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            estimate_product_interval(a, a)

    def test_single_nnz_rows_exact(self):
        tokens = single_nnz_per_row(100, 30, seed=9)
        data = random_sparse(30, 20, 0.3, seed=10)
        interval = estimate_product_interval(*_sketches(tokens, data))
        assert interval.exact
        assert interval.estimate == matmul(tokens, data).nnz


class TestNormalQuantile:
    """The interval's z comes from ``scipy.special.ndtri``, so that importing
    repro does not load ``scipy.stats``; the bounds must stay the ones
    ``scipy.stats.norm.ppf`` gives."""

    CONFIDENCES = [1e-9, 1e-3, *np.linspace(0.01, 0.99, 99), 0.999, 1 - 1e-9]

    @pytest.mark.parametrize("density, seed", [(0.05, 1), (0.1, 2), (0.3, 3)])
    def test_bounds_match_norm_ppf(self, density, seed):
        from scipy import stats

        a = random_sparse(120, 90, density, seed=seed)
        b = random_sparse(90, 110, density, seed=seed + 100)
        h_a, h_b = _sketches(a, b)
        estimate = estimate_product_nnz(h_a, h_b)
        cells = float(h_a.nnz_rows) * float(h_b.nnz_cols)
        occupancy = min(max(estimate / cells, 0.0), 1.0)
        std = math.sqrt(cells * occupancy * (1.0 - occupancy))
        floor = float(product_nnz_lower_bound(h_a, h_b))
        ceiling = float(product_nnz_upper_bound(h_a, h_b))
        for confidence in self.CONFIDENCES:
            interval = estimate_product_interval(h_a, h_b, confidence)
            assert not interval.exact
            z = float(stats.norm.ppf(0.5 + confidence / 2.0))
            assert interval.lower == max(estimate - z * std, floor, 0.0)
            assert interval.upper == min(
                estimate + z * std, ceiling, float(h_a.nrows * h_b.ncols)
            )

    def test_import_leaves_heavy_scipy_unloaded(self):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        probe = (
            "import sys, repro.cli; "
            "print(' '.join(m for m in ('scipy.stats', 'scipy.optimize', "
            "'scipy.spatial', 'scipy.ndimage') if m in sys.modules))"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.split()
        assert loaded == []


class TestSampleInterval:
    def test_percentiles(self):
        samples = np.arange(100, dtype=float)
        interval = interval_from_samples(samples, confidence=0.9)
        assert interval.lower == pytest.approx(4.95, abs=0.5)
        assert interval.upper == pytest.approx(94.05, abs=0.5)
        assert interval.estimate == pytest.approx(49.5)

    def test_constant_samples_exact(self):
        interval = interval_from_samples(np.full(10, 7.0))
        assert interval.exact
        assert interval.width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            interval_from_samples(np.array([]))

    def test_contains(self):
        interval = NnzInterval(5.0, 4.0, 6.0, 0.95, exact=False)
        assert interval.contains(5.5)
        assert not interval.contains(7.0)

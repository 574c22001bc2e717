"""One count width for every MNC sketch (``repro.core.sketch.COUNT_DTYPE``).

Counts are int32, totals are Python ints, and Algorithm 1 reads float64
views, so the width must never change an answer: these tests pin the
places where a narrow count could wrap, the proof that every propagation
rule emits the width, and the loading of files written with int64 counts.
"""

import numpy as np
import pytest

from repro import backends
from repro.backends.jit_backend import KernelBackend
from repro.catalog.fingerprint import fingerprint_sketch
from repro.core import ops
from repro.core.distributed import merge_col_partitions, merge_row_partitions
from repro.core.estimate import estimate_product_nnz
from repro.core.hotpath import validated_scope
from repro.core.incremental import AppendRows, IncrementalSketch, apply_update
from repro.core.propagate import propagate_product
from repro.core.rounding import probabilistic_round
from repro.core.serialize import load_sketch, sketch_to_arrays
from repro.core.sketch import COUNT_DTYPE, COUNT_MAX, MNCSketch
from repro.errors import SketchError
from repro.matrix.random import random_sparse


def _counts(sketch):
    return [v for v in (sketch.hr, sketch.hc, sketch.her, sketch.hec) if v is not None]


class TestOverflowBeforeCap:
    """Eq 11 can scale a count past 2**31 - 1 before capping it at the
    opposing dimension; the cap must apply before the narrowing cast."""

    @pytest.mark.parametrize("backend", ["numpy", "kernels"])
    def test_full_row_scaled_past_int32_is_capped(self, backend):
        n = 100_000
        hr = np.ones(n, dtype=np.int64)
        hr[0] = n  # one full row, 99,999 single-entry rows (diagonal)
        hc = np.full(n, 2, dtype=np.int64)
        hc[0] = 1
        a = MNCSketch(shape=(n, n), hr=hr, hc=hc)
        b = MNCSketch(shape=(n, n), hr=np.full(n, n), hc=np.full(n, n))
        chosen = KernelBackend() if backend == "kernels" else backend
        with backends.use_backend(chosen):
            c = propagate_product(a, b, rng=0)
        # The counts the int64 build returned.
        assert c.hr.dtype == c.hc.dtype == COUNT_DTYPE
        assert (int(c.hr.min()), int(c.hr.max())) == (43_233, 100_000)
        assert (int(c.hc.min()), int(c.hc.max())) == (43_233, 43_235)
        assert c.total_nnz == 4_323_408_850
        assert fingerprint_sketch(c) == "52a5d3a410f1c0ce7466f3f661e7bc2256f4ef05"

    def test_rounding_caps_before_narrowing(self):
        values = np.array([5e9, 3.5e9, 2.0**31, 7.25])
        rounded = probabilistic_round(values, rng=0, maximum=100_000)
        assert rounded.dtype == COUNT_DTYPE
        assert rounded[:3].tolist() == [100_000] * 3
        assert rounded[3] in (7, 8)
        uncapped = probabilistic_round(values, rng=0)
        assert uncapped[:3].tolist() == [COUNT_MAX] * 3


class TestEveryRuleEmitsTheWidth:
    def test_trusted_rejects_other_widths_under_validation(self):
        wide = np.array([1, 1], dtype=np.int64)
        narrow = wide.astype(COUNT_DTYPE)
        with validated_scope():
            for field in ("hr", "hc", "her", "hec"):
                kwargs = dict(hr=narrow, hc=narrow, her=None, hec=None)
                kwargs[field] = wide
                with pytest.raises(SketchError, match="dtype"):
                    MNCSketch.trusted(shape=(2, 2), **kwargs)
            MNCSketch.trusted(shape=(2, 2), hr=narrow, hc=narrow)
        # Outside the scope the fast tier checks nothing.
        assert MNCSketch.trusted(shape=(2, 2), hr=wide, hc=narrow).hr is wide

    def test_every_rule_builds_count_width_sketches(self):
        a = MNCSketch.from_matrix(random_sparse(12, 10, 0.3, seed=1))
        b = MNCSketch.from_matrix(random_sparse(10, 8, 0.3, seed=2))
        same = MNCSketch.from_matrix(random_sparse(12, 10, 0.25, seed=3))
        square = MNCSketch.from_matrix(random_sparse(10, 10, 0.3, seed=4))
        column = MNCSketch.from_matrix(random_sparse(10, 1, 0.5, seed=5))
        incremental = IncrementalSketch(random_sparse(12, 10, 0.3, seed=6))
        with validated_scope():
            built = [
                propagate_product(a, b, rng=0),
                ops.propagate_transpose(a),
                ops.propagate_equals_zero(a),
                ops.propagate_rbind(a, same),
                ops.propagate_cbind(a, same),
                ops.propagate_diag_vector(column),
                ops.propagate_diag_extract(square, rng=0),
                ops.propagate_reshape(a, 6, 20, rng=0),
                ops.propagate_reshape(a, 24, 5, rng=0),
                ops.propagate_reshape(a, 8, 15, rng=0),
                ops.propagate_row_sums(a),
                ops.propagate_col_sums(a),
                ops.propagate_ewise_mult(a, same, rng=0),
                ops.propagate_ewise_add(a, same, rng=0),
                merge_row_partitions([a, same]),
                merge_col_partitions([a, same]),
                MNCSketch.synthetic(40, 30, 0.1, np.random.default_rng(0)),
                incremental.sketch(),
            ]
            apply_update(incremental, AppendRows([np.array([0, 3])]))
            built.append(incremental.sketch())
        for sketch in built:
            assert all(v.dtype == COUNT_DTYPE for v in _counts(sketch)), sketch

    def test_validating_constructor_checks_before_narrowing(self):
        with pytest.raises(SketchError, match="row counts"):
            MNCSketch(shape=(1, 5), hr=np.array([2**32 + 1]), hc=np.ones(5))
        with pytest.raises(SketchError, match="exceeds"):
            MNCSketch(shape=(2**31, 1), hr=np.zeros(1), hc=np.zeros(1))
        sketch = MNCSketch(shape=(2, 3), hr=[3, 1], hc=np.array([2, 1, 1]))
        assert sketch.hr.dtype == sketch.hc.dtype == COUNT_DTYPE


class TestInt64EraFiles:
    def test_int64_npz_loads_narrowed_with_same_answers(self, tmp_path):
        a = MNCSketch.from_matrix(random_sparse(60, 50, 0.08, seed=7))
        b = MNCSketch.from_matrix(random_sparse(50, 40, 0.1, seed=8))
        assert a.her is not None and a.hec is not None
        arrays = sketch_to_arrays(a)
        for name in ("hr", "hc", "her", "hec"):
            arrays[name] = arrays[name].astype(np.int64)
        path = tmp_path / "int64_era.npz"
        np.savez(path, **arrays)

        loaded = load_sketch(path)
        assert all(v.dtype == COUNT_DTYPE for v in _counts(loaded))
        for old, new in zip(_counts(a), _counts(loaded)):
            np.testing.assert_array_equal(old, new)
        assert fingerprint_sketch(loaded) == fingerprint_sketch(a)
        assert estimate_product_nnz(loaded, b) == estimate_product_nnz(a, b)
        assert propagate_product(loaded, b, rng=3).hr.tobytes() == (
            propagate_product(a, b, rng=3).hr.tobytes()
        )

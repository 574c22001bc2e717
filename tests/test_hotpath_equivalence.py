"""Trusted-tier vs validated-tier equivalence (docs/PERFORMANCE.md).

The hot-path overhaul introduced a trusted construction tier
(:meth:`MNCSketch.trusted`), lazy summary statistics, and scratch-buffer
kernels. None of that may change a single bit of any estimate: this module
proves it by running the ``repro.verify`` generator zoo through both tiers
(:func:`~repro.core.hotpath.validated_scope` re-routes every trusted
construction through the fully validating constructor) and comparing
results exactly — estimates, serialized bytes, and summary statistics.
"""

import numpy as np
import pytest

from repro.core.hotpath import validated_scope, validation_forced
from repro.core.serialize import sketch_to_arrays
from repro.core.sketch import COUNT_DTYPE, MNCSketch, _cached_zeros
from repro.estimators.mnc import MNCEstimator
from repro.ir.estimate import estimate_root_nnz
from repro.matrix.random import random_sparse
from repro.observability.metrics import METRICS
from repro.verify.generators import all_generators, generate_case

CASES_PER_GENERATOR = 6
SEED = 20260806


def _zoo_cases():
    for generator in all_generators():
        for index in range(CASES_PER_GENERATOR):
            yield generate_case(generator, SEED, index)


def _case_ids():
    return [
        f"{g}-{i}"
        for g in all_generators()
        for i in range(CASES_PER_GENERATOR)
    ]


class TestEstimateEquivalence:
    @pytest.mark.parametrize("case", list(_zoo_cases()), ids=_case_ids())
    def test_trusted_matches_validated_bitwise(self, case):
        """Same case, same seeds: both tiers give the identical float."""
        trusted = estimate_root_nnz(case.root, MNCEstimator(seed=SEED))
        with validated_scope():
            validated = estimate_root_nnz(case.root, MNCEstimator(seed=SEED))
        assert trusted == validated  # exact, not approx

    def test_validated_scope_is_scoped_and_reentrant(self):
        assert not validation_forced()
        with validated_scope():
            assert validation_forced()
            with validated_scope():
                assert validation_forced()
            assert validation_forced()
        assert not validation_forced()


class TestSketchEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_serialized_bytes_identical(self, seed):
        """Trusted construction serializes byte-for-byte like validated."""
        matrix = random_sparse(40, 32, 0.15, seed=seed)
        built = MNCSketch.from_matrix(matrix)
        trusted = MNCSketch.trusted(
            shape=built.shape, hr=built.hr, hc=built.hc,
            her=built.her, hec=built.hec,
            fully_diagonal=built.fully_diagonal, exact=built.exact,
        )
        validated = MNCSketch(
            shape=built.shape, hr=built.hr, hc=built.hc,
            her=built.her, hec=built.hec,
            fully_diagonal=built.fully_diagonal, exact=built.exact,
        )
        a = sketch_to_arrays(trusted)
        b = sketch_to_arrays(validated)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key
            assert a[key].dtype == b[key].dtype, key

    @pytest.mark.parametrize("seed", range(8))
    def test_lazy_summaries_equal_eager(self, seed):
        """Every lazily cached statistic equals its from-scratch value."""
        matrix = random_sparse(37, 29, 0.2, seed=seed)
        sketch = MNCSketch.from_matrix(matrix)
        m, n = sketch.shape
        hr, hc = sketch.hr, sketch.hc
        assert sketch.max_hr == (int(hr.max()) if hr.size else 0)
        assert sketch.max_hc == (int(hc.max()) if hc.size else 0)
        assert sketch.nnz_rows == int(np.count_nonzero(hr))
        assert sketch.nnz_cols == int(np.count_nonzero(hc))
        assert sketch.rows_half_full == int(np.count_nonzero(hr > n / 2))
        assert sketch.cols_half_full == int(np.count_nonzero(hc > m / 2))
        assert sketch.rows_single == int(np.count_nonzero(hr == 1))
        assert sketch.cols_single == int(np.count_nonzero(hc == 1))
        assert sketch.total_nnz == int(hr.sum())
        assert sketch.row_stats == (
            sketch.max_hr, sketch.nnz_rows,
            sketch.rows_half_full, sketch.rows_single,
        )
        assert sketch.col_stats == (
            sketch.max_hc, sketch.nnz_cols,
            sketch.cols_half_full, sketch.cols_single,
        )

    def test_float64_mirrors_match_and_are_readonly(self):
        sketch = MNCSketch.from_matrix(random_sparse(30, 30, 0.1, seed=3))
        np.testing.assert_array_equal(sketch.hr_f64, sketch.hr.astype(np.float64))
        np.testing.assert_array_equal(sketch.hc_f64, sketch.hc.astype(np.float64))
        assert not sketch.hr_f64.flags.writeable
        assert not sketch.hc_f64.flags.writeable
        assert sketch.hr_f64 is sketch.hr_f64  # cached, not rebuilt

    def test_zero_vectors_cached_and_readonly(self):
        a = _cached_zeros(17)
        b = _cached_zeros(17)
        assert a is b
        assert not a.flags.writeable
        assert (a == 0).all() and a.dtype == COUNT_DTYPE
        f = _cached_zeros(17, np.float64)
        assert f.dtype == np.float64 and f is not a

    def test_pickle_drops_caches(self):
        import pickle

        sketch = MNCSketch.from_matrix(random_sparse(25, 25, 0.2, seed=5))
        sketch.total_nnz, sketch.row_stats, sketch.hr_f64  # warm caches
        clone = pickle.loads(pickle.dumps(sketch))
        assert "_hr_f64" not in clone.__dict__
        assert "_row_bundle" not in clone.__dict__
        np.testing.assert_array_equal(clone.hr, sketch.hr)
        assert clone.total_nnz == sketch.total_nnz


def _hotpath(name):
    return METRICS.snapshot().counters.get(f"hotpath.{name}", 0.0)


class TestHotpathCounters:
    def test_trusted_and_validated_constructions_counted(self):
        validated_before = _hotpath("validated_constructions")
        sketch = MNCSketch.from_matrix(random_sparse(20, 20, 0.2, seed=1))
        assert _hotpath("validated_constructions") >= validated_before + 1
        before = _hotpath("trusted_constructions")
        MNCSketch.trusted(
            shape=sketch.shape, hr=sketch.hr, hc=sketch.hc,
            her=sketch.her, hec=sketch.hec,
            fully_diagonal=sketch.fully_diagonal, exact=sketch.exact,
        )
        assert _hotpath("trusted_constructions") == before + 1

    def test_trusted_validates_inside_scope(self):
        sketch = MNCSketch.from_matrix(random_sparse(20, 20, 0.2, seed=1))
        validated_before = _hotpath("validated_constructions")
        trusted_before = _hotpath("trusted_constructions")
        with validated_scope():
            MNCSketch.trusted(
                shape=sketch.shape, hr=sketch.hr, hc=sketch.hc,
                her=sketch.her, hec=sketch.hec,
                fully_diagonal=sketch.fully_diagonal, exact=sketch.exact,
            )
        assert _hotpath("validated_constructions") == validated_before + 1
        assert _hotpath("trusted_constructions") == trusted_before

    def test_trusted_inside_scope_rejects_bad_sketch(self):
        """validated_scope restores the invariant checks the fast tier skips."""
        from repro.errors import SketchError

        hr = np.array([2, 1], dtype=np.int64)
        hc = np.array([1, 1], dtype=np.int64)  # sum(hr)=3 != sum(hc)=2
        MNCSketch.trusted(
            shape=(2, 2), hr=hr, hc=hc, her=None, hec=None,
            fully_diagonal=False, exact=False,
        )  # fast tier: no check, caller's responsibility
        with validated_scope():
            with pytest.raises(SketchError):
                MNCSketch.trusted(
                    shape=(2, 2), hr=hr, hc=hc, her=None, hec=None,
                    fully_diagonal=False, exact=False,
                )


class TestKernelFixes:
    """Regression tests for the satellite kernel fixes of the overhaul."""

    @pytest.mark.parametrize("fill", [0.5, 0.9, 0.99, 1.0])
    def test_capped_multinomial_near_dense(self, fill):
        """Bulk redistribution: exact total, cap respected, even when the
        requested total nearly saturates ``bins * cap``."""
        from repro.core.sketch import _capped_multinomial

        bins, cap = 500, 40
        total = int(bins * cap * fill)
        counts = _capped_multinomial(total, bins, cap, np.random.default_rng(0))
        assert int(counts.sum()) == total
        assert int(counts.max()) <= cap
        assert int(counts.min()) >= 0
        assert counts.dtype == np.int64

    def test_capped_multinomial_single_bin(self):
        from repro.core.sketch import _capped_multinomial

        counts = _capped_multinomial(7, 1, 10, np.random.default_rng(0))
        assert counts.tolist() == [7]

    @pytest.mark.parametrize("seed", range(5))
    def test_bitset_col_sums_popcount_exact(self, seed):
        """The popcount-of-OR column count matches the materialized truth."""
        from repro.estimators.bitset import BitsetEstimator, pack_matrix
        from repro.matrix.conversion import as_csr

        matrix = random_sparse(33, 41, 0.12, seed=seed)
        synopsis = pack_matrix(matrix)
        estimator = BitsetEstimator()
        expected = float(np.count_nonzero(
            np.asarray((as_csr(matrix) != 0).sum(axis=0)).ravel()
        ))
        assert estimator._estimate_col_sums(synopsis) == expected

    def test_bitset_col_sums_ignores_padding_bits(self):
        """Column counts must not count the padding bits past column n."""
        from repro.estimators.bitset import BitsetEstimator, pack_matrix

        dense = np.ones((4, 13))  # 13 columns: 3 padding bits in last byte
        synopsis = pack_matrix(dense)
        assert BitsetEstimator()._estimate_col_sums(synopsis) == 13.0


def _kernel_backends():
    """Kernel backends to hold against numpy, as pytest params.

    ``python`` — the kernel definitions run by the Python interpreter, a
    directly constructed ``KernelBackend()`` that no registry name
    selects — always participates; numba's compiled build of the same
    kernels joins when numba is installed, which is how the CI
    ``backends`` job gets its compiled-leg coverage.
    """
    from repro import backends
    from repro.backends.jit_backend import KernelBackend

    params = [pytest.param(KernelBackend(), id="python")]
    if backends.numba_importable():
        params.append(pytest.param("numba", id="numba"))
    return params


class TestBackendEquivalence:
    """numpy vs kernel backends: byte-identical, per contract.

    Same zoo, same seeds as the tier equivalence tests above — every
    estimate and every propagated sketch must agree bit-for-bit across
    backends (docs/PERFORMANCE.md "Backends").
    """

    @pytest.mark.parametrize("backend", _kernel_backends())
    @pytest.mark.parametrize("case", list(_zoo_cases()), ids=_case_ids())
    def test_zoo_estimates_bitwise_equal(self, backend, case):
        from repro import backends

        with backends.use_backend("numpy"):
            reference = estimate_root_nnz(case.root, MNCEstimator(seed=SEED))
        with backends.use_backend(backend):
            kernel = estimate_root_nnz(case.root, MNCEstimator(seed=SEED))
        assert reference == kernel  # exact, not approx

    @pytest.mark.parametrize("backend", _kernel_backends())
    @pytest.mark.parametrize("seed", range(4))
    def test_propagated_sketch_bytes_equal(self, backend, seed):
        from repro import backends
        from repro.core.propagate import propagate_product

        h_a = MNCSketch.from_matrix(random_sparse(48, 36, 0.12, seed=seed))
        h_b = MNCSketch.from_matrix(random_sparse(36, 44, 0.18, seed=seed + 100))
        with backends.use_backend("numpy"):
            reference = propagate_product(h_a, h_b, rng=seed)
        with backends.use_backend(backend):
            kernel = propagate_product(h_a, h_b, rng=seed)
        a = sketch_to_arrays(reference)
        b = sketch_to_arrays(kernel)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key

    @pytest.mark.parametrize("backend", _kernel_backends())
    def test_chain_dp_workers_and_backends_agree(self, backend):
        """Chain DP: same plan and cost at workers=1 and workers=4, under
        the numpy reference and every kernel backend."""
        from repro import backends
        from repro.optimizer import optimize_chain_sparse, plan_to_string

        rng = np.random.default_rng(17)
        dims = [30, 20, 25, 15, 35, 10]
        sketches = [
            MNCSketch.synthetic(m, n, 0.15, rng)
            for m, n in zip(dims, dims[1:])
        ]
        outcomes = {}
        for candidate in ("numpy", backend):
            for workers in (1, 4):
                with backends.use_backend(candidate):
                    solution = optimize_chain_sparse(
                        sketches, rng=np.random.default_rng(3), workers=workers
                    )
                outcomes[(candidate, workers)] = (
                    plan_to_string(solution.plan), solution.cost
                )
        # One schedule for every worker count: all four runs agree.
        assert len(set(outcomes.values())) == 1, outcomes

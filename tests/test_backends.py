"""Backend registry, kernel primitives, and the byte-identity contract.

The dispatch layer (``repro.backends``) promises that every backend —
the vectorized numpy backend and the numba-compiled kernels — produces
**byte-identical** results on one machine: the exact kernels agree
through exact arithmetic, and the density-map term agrees because every
backend runs the same numpy code for it. This module tests the registry
semantics (selection, graceful fallback, warmup), the exact kernels
primitive by primitive against the uncompiled kernel definitions, the
density-map term's accuracy against ``math.log1p``/``math.fsum``,
identity end to end through the estimation drivers, and the RNG-stream
contract (draws happen in the driver, never in a kernel).

The compiled numba backend itself is exercised in CI's ``backends``
job; here it participates automatically whenever numba is installed via
the ``_kernel_backends`` parametrization.
"""

import math
import os
import warnings

import numpy as np
import pytest

from repro import backends
from repro.backends import BackendUnavailable
from repro.backends import registry as breg
from repro.backends.jit_backend import KernelBackend, NumbaBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.core.estimate import density_map_vector_estimate
from repro.core.propagate import propagate_product, scale_histogram
from repro.core.rounding import probabilistic_round
from repro.core.serialize import sketch_to_arrays
from repro.core.sketch import MNCSketch
from repro.estimators.bitset import BitsetEstimator, pack_matrix
from repro.matrix.random import random_sparse
from repro.observability.metrics import metrics_snapshot


def _kernel_backends():
    """Kernel backends held against numpy, as pytest params.

    ``python`` is the kernel definitions run by the Python interpreter —
    a directly constructed ``KernelBackend()``, which no registry name
    selects; ``numba`` is numba's compiled build of them, where it imports.
    """
    params = [pytest.param(KernelBackend(), id="python")]
    if backends.numba_importable():
        params.append(pytest.param("numba", id="numba"))
    return params


@pytest.fixture
def registry_state(monkeypatch):
    """Snapshot and restore the registry's process-wide state."""
    saved_active = breg._ACTIVE
    saved_warned = set(breg._WARNED)
    saved_instances = dict(breg._INSTANCES)
    saved_factories = dict(breg._FACTORIES)
    saved_probes = dict(breg._PROBES)
    # setenv first so teardown restores the variable, whatever a test (or
    # the CLI's --backend export) leaves in it.
    monkeypatch.setenv(breg.BACKEND_ENV, "")
    monkeypatch.delenv(breg.BACKEND_ENV)
    yield
    breg._ACTIVE = saved_active
    breg._WARNED.clear()
    breg._WARNED.update(saved_warned)
    breg._INSTANCES.clear()
    breg._INSTANCES.update(saved_instances)
    breg._FACTORIES.clear()
    breg._FACTORIES.update(saved_factories)
    breg._PROBES.clear()
    breg._PROBES.update(saved_probes)


def _counter(name):
    return metrics_snapshot().counters.get(name, 0.0)


class TestRegistry:
    def test_builtins_registered(self, registry_state):
        availability = backends.available_backends()
        assert availability["numpy"] is True
        assert sorted(availability) == ["numba", "numpy"]

    def test_auto_resolution_prefers_numba_when_probed(self, registry_state):
        breg._PROBES["numba"] = lambda: True
        assert backends.resolve_backend_name("auto") == "numba"
        breg._PROBES["numba"] = lambda: False
        assert backends.resolve_backend_name("auto") == "numpy"

    def test_env_drives_resolution(self, registry_state, monkeypatch):
        breg._PROBES["numba"] = lambda: True
        monkeypatch.setenv(breg.BACKEND_ENV, "numpy")
        assert backends.resolve_backend_name() == "numpy"
        backend = backends.set_backend(None)
        assert backend.name == "numpy"

    def test_set_backend_unknown_name_raises(self, registry_state):
        with pytest.raises(ValueError, match="unknown backend"):
            backends.set_backend("not-a-backend")
        # The uncompiled kernels are no selectable backend.
        with pytest.raises(ValueError, match="unknown backend"):
            backends.set_backend("python")

    def test_env_python_falls_back_once(self, registry_state, monkeypatch):
        monkeypatch.setenv(breg.BACKEND_ENV, "python")
        before = _counter("backend.fallbacks")
        with pytest.warns(RuntimeWarning, match="falling back to numpy") as record:
            backend = backends.set_backend(None)
        assert len(record) == 1
        assert backend.name == "numpy"
        assert _counter("backend.fallbacks") == before + 1

    def test_env_unknown_name_falls_back_once(self, registry_state, monkeypatch):
        monkeypatch.setenv(breg.BACKEND_ENV, "definitely-not-a-backend")
        before = _counter("backend.fallbacks")
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            backend = backends.set_backend(None)
        assert backend.name == "numpy"
        assert _counter("backend.fallbacks") == before + 1
        # One-time warning: a second resolution is silent but still counted.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = backends.set_backend(None)
        assert backend.name == "numpy"

    def test_unavailable_backend_falls_back(self, registry_state):
        """A factory failing mid-selection degrades to numpy with a warning."""

        def exploding_factory():
            raise BackendUnavailable("import failed mid-selection")

        breg._FACTORIES["numba"] = exploding_factory
        breg._PROBES["numba"] = lambda: True
        breg._INSTANCES.pop("numba", None)
        before = _counter("backend.fallbacks")
        with pytest.warns(RuntimeWarning, match="unavailable"):
            backend = backends.set_backend("numba")
        assert backend.name == "numpy"
        assert _counter("backend.fallbacks") == before + 1

    def test_numba_backend_reports_unavailable_without_numba(self):
        if backends.numba_importable():
            pytest.skip("numba is installed; unavailability path not reachable")
        with pytest.raises(BackendUnavailable, match="numba"):
            NumbaBackend()

    def test_instances_are_cached(self, registry_state):
        first = backends.set_backend("numpy")
        second = backends.set_backend("numpy")
        assert first is second

    def test_use_backend_restores_previous(self, registry_state):
        outer = backends.set_backend("numpy")
        kernels = KernelBackend()
        with backends.use_backend(kernels) as inner:
            assert inner is kernels
            assert backends.get_backend() is kernels
        assert backends.get_backend() is outer
        with backends.use_backend("numpy") as inner:
            assert inner is outer
        assert backends.get_backend() is outer


class TestWarmup:
    def test_warmup_records_gauge_and_counter(self, registry_state):
        backends.set_backend("numpy")
        before = _counter("backend.warmups")
        seconds = backends.warmup()
        assert seconds >= 0.0
        snapshot = metrics_snapshot()
        assert snapshot.counters["backend.warmups"] == before + 1
        assert snapshot.gauges["backend.jit_compile_seconds"] == pytest.approx(
            seconds
        )

    @pytest.mark.parametrize("backend", _kernel_backends())
    def test_warmup_is_idempotent(self, registry_state, backend):
        with backends.use_backend(backend):
            first = backends.warmup()
            second = backends.warmup()
        assert first >= 0.0 and second >= 0.0


def _pair():
    return KernelBackend(), NumpyBackend()


def _adversarial_vectors(rng, n, kind):
    """Slice collision products in ``[0, 1)`` (times ``-1`` in the kernel)."""
    if kind == "uniform":
        v = rng.random(n)
    elif kind == "tiny":
        v = rng.random(n) * 10.0 ** float(rng.integers(-12, 0))
    elif kind == "near_saturation":
        v = 1.0 - rng.random(n) * 1e-6
    elif kind == "below_2**-29":
        v = rng.random(n) * 2.0 ** -29
    elif kind == "saturation_edge":
        v = np.nextafter(1.0, 0.0) - rng.random(n) * 2.0 ** -40
    elif kind == "empty":
        v = np.empty(0)
    elif kind == "n20000":
        v = rng.random(20_000)
    else:  # "zeros" mixed in
        v = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
    return v


#: Density-map input sets: the adversarial sets (seeds 0-3), values below
#: 2**-29 (where log1p(x) is x - x*x/2 to double precision), values at the
#: saturation edge, an empty vector, and one long vector.
DM_KINDS = list(enumerate([
    "uniform", "tiny", "near_saturation", "zeros",
    "below_2**-29", "saturation_edge", "empty", "n20000",
]))


class TestPrimitiveIdentity:
    """Exact kernels: uncompiled kernel definitions vs numpy, byte for byte;
    the density-map term: numpy vs ``math.log1p`` summed by ``math.fsum``."""

    def test_dot_and_subtract(self):
        py, ref = _pair()
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 256, 1023):
            a = rng.integers(0, 1000, n).astype(np.float64)
            b = rng.integers(0, 1000, n).astype(np.float64)
            assert py.dot(a, b) == ref.dot(a, b)
            out_a = np.empty(n)
            out_b = np.empty(n)
            py.subtract(a, b, out_a)
            ref.subtract(a, b, out_b)
            assert np.array_equal(out_a, out_b)

    @pytest.mark.parametrize("seed, kind", DM_KINDS)
    def test_dm_collision_log1p_elementwise(self, seed, kind):
        """Each log1p term and the E_dm log-sum stay within 1e-12 relative
        of per-element ``math.log1p`` summed by ``math.fsum``."""
        backend = NumpyBackend()
        rng = np.random.default_rng(seed)
        for trial in range(5):
            v_a = _adversarial_vectors(rng, int(rng.integers(1, 500)), kind)
            n = v_a.size
            out = np.empty(n)
            assert not backend.dm_collision_log1p(v_a, np.ones(n), -1.0, out)
            expected = [math.log1p(-x) for x in v_a]
            for got, want in zip(out.tolist(), expected):
                assert abs(got - want) <= 1e-12 * abs(want)
            log_sum = backend.tree_sum(out)
            want = math.fsum(expected)
            assert abs(log_sum - want) <= 1e-12 * abs(want)

    def test_dm_collision_log1p_saturates(self):
        py, ref = _pair()
        v = np.array([0.5, 1.0, 0.25])
        ones = np.ones(3)
        out = np.empty(3)
        assert py.dm_collision_log1p(v, ones, -1.0, out) is True
        assert ref.dm_collision_log1p(v, ones, -1.0, out) is True

    def test_dm_log1p_matches_math_log1p_closely(self):
        """numpy's log1p stays within a few ulp of libm's."""
        rng = np.random.default_rng(3)
        x = -rng.random(2000) * 0.999
        out = np.empty(2000)
        assert not NumpyBackend().dm_collision_log1p(-x, np.ones(2000), -1.0, out)
        for xi, got in zip(x, out):
            expected = math.log1p(xi)
            assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_prob_round_given_same_draws(self):
        py, ref = _pair()
        rng = np.random.default_rng(2)
        for maximum in (-1, 0, 3, 10**9):
            n = 400
            values = rng.random(n) * 20.0 - 1.0  # includes negatives
            draws = rng.random(n)
            out_py = np.empty(n, dtype=np.int64)
            out_ref = np.empty(n, dtype=np.int64)
            py.prob_round_into(values, draws, maximum, out_py)
            ref.prob_round_into(values, draws, maximum, out_ref)
            assert np.array_equal(out_py, out_ref)

    def test_scale_round_given_same_draws(self):
        py, ref = _pair()
        rng = np.random.default_rng(4)
        n = 300
        histogram = rng.integers(0, 10**6, n)
        draws = rng.random(n)
        for factor in (0.0, 1e-9, 0.5, 1.0, 3.75):
            out_py = np.empty(n, dtype=np.int64)
            out_ref = np.empty(n, dtype=np.int64)
            py.scale_round_into(histogram, factor, draws, 10**5, out_py)
            ref.scale_round_into(histogram, factor, draws, 10**5, out_ref)
            assert np.array_equal(out_py, out_ref)

    def test_reconcile_bulk(self):
        py, ref = _pair()
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(1, 200))
            base = rng.integers(0, 50, n)
            total = int(base.sum())
            for remaining in {0, 1, total // 2, max(total - 1, 0)}:
                t_py = base.copy()
                t_ref = base.copy()
                r_py = py.reconcile_bulk(t_py, remaining)
                r_ref = ref.reconcile_bulk(t_ref, remaining)
                assert r_py == r_ref
                assert np.array_equal(t_py, t_ref)
                # Bulk phase removes exactly remaining - leftover units.
                assert int(base.sum() - t_py.sum()) == remaining - r_py

    def test_reconcile_bulk_counting_edges(self):
        """The counting pass agrees with the kernels' binary search on
        empty, all-zero, capped and fully-removable targets."""
        py, ref = _pair()
        cases = [
            (np.zeros(0, dtype=np.int64), 0),
            (np.zeros(7, dtype=np.int64), 0),
            (np.array([0, 5, 0, 5, 5], dtype=np.int64), 15),
            (np.array([0, 5, 0, 5, 5], dtype=np.int64), 14),
            (np.array([1, 1, 1, 1], dtype=np.int64), 3),
            (np.array([10_000, 1, 9_999, 2], dtype=np.int64), 9_000),
        ]
        for base, remaining in cases:
            t_py, t_ref = base.copy(), base.copy()
            assert py.reconcile_bulk(t_py, remaining) == ref.reconcile_bulk(
                t_ref, remaining
            )
            assert np.array_equal(t_py, t_ref)

    def test_popcounts(self):
        py, ref = _pair()
        rng = np.random.default_rng(6)
        for shape in ((0, 3), (1, 1), (5, 4), (64, 16)):
            bits = rng.integers(0, 256, shape).astype(np.uint8)
            assert py.popcount_sum(bits) == ref.popcount_sum(bits)
            assert py.or_popcount(bits) == ref.or_popcount(bits)

    def test_bitset_block_or(self):
        py, ref = _pair()
        rng = np.random.default_rng(7)
        block = rng.random((6, 40)) < 0.2
        b_bits = rng.integers(0, 256, (40, 5)).astype(np.uint8)
        out_py = np.zeros((10, 5), dtype=np.uint8)
        out_ref = np.zeros((10, 5), dtype=np.uint8)
        py.bitset_block_or(block, b_bits, out_py, 2)
        ref.bitset_block_or(block, b_bits, out_ref, 2)
        assert np.array_equal(out_py, out_ref)


class TestDriverIdentity:
    """End-to-end equality through the estimation drivers."""

    @pytest.mark.parametrize("backend", _kernel_backends())
    def test_density_map_estimate_matches_reference(self, registry_state, backend):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(1, 800))
            v_a = rng.integers(0, 50, n).astype(np.float64)
            v_b = rng.integers(0, 50, n).astype(np.float64)
            cells = float(rng.integers(1, 10**6))
            with backends.use_backend("numpy"):
                expected = density_map_vector_estimate(v_a, v_b, cells)
            with backends.use_backend(backend):
                got = density_map_vector_estimate(v_a, v_b, cells)
            assert got == expected

    @pytest.mark.parametrize("backend", _kernel_backends())
    def test_propagate_product_bytes_match(self, registry_state, backend):
        h_a = MNCSketch.from_matrix(random_sparse(60, 45, 0.1, seed=1))
        h_b = MNCSketch.from_matrix(random_sparse(45, 50, 0.2, seed=2))
        with backends.use_backend("numpy"):
            ref_sketch = propagate_product(h_a, h_b, rng=123)
        with backends.use_backend(backend):
            got_sketch = propagate_product(h_a, h_b, rng=123)
        ref_arrays = sketch_to_arrays(ref_sketch)
        got_arrays = sketch_to_arrays(got_sketch)
        assert set(ref_arrays) == set(got_arrays)
        for key in ref_arrays:
            assert ref_arrays[key].tobytes() == got_arrays[key].tobytes()

    @pytest.mark.parametrize("backend", _kernel_backends())
    def test_probabilistic_round_matches_and_preserves_stream(
        self, registry_state, backend
    ):
        values = np.random.default_rng(8).random(500) * 7.0
        with backends.use_backend("numpy"):
            expected = probabilistic_round(values, rng=42, maximum=5)
        with backends.use_backend(backend):
            got = probabilistic_round(values, rng=42, maximum=5)
        assert np.array_equal(expected, got)
        # The driver draws exactly one uniform per entry, under every
        # backend: the generator state afterwards equals a fresh
        # generator's state after consuming len(values) uniforms.
        generator = np.random.default_rng(42)
        with backends.use_backend(backend):
            probabilistic_round(values, rng=generator, maximum=5)
        reference = np.random.default_rng(42)
        reference.random(values.size)
        assert generator.random() == reference.random()

    @pytest.mark.parametrize("backend", _kernel_backends())
    def test_scale_histogram_matches(self, registry_state, backend):
        histogram = np.random.default_rng(9).integers(0, 40, 120)
        with backends.use_backend("numpy"):
            expected = scale_histogram(histogram, 321.5, maximum=30, rng=7)
        with backends.use_backend(backend):
            got = scale_histogram(histogram, 321.5, maximum=30, rng=7)
        assert np.array_equal(expected, got)

    @pytest.mark.parametrize("backend", _kernel_backends())
    def test_bitset_estimator_matches(self, registry_state, backend):
        a = random_sparse(70, 30, 0.15, seed=3)
        b = random_sparse(30, 40, 0.25, seed=4)
        estimator = BitsetEstimator()
        with backends.use_backend("numpy"):
            syn_ref = estimator._propagate_matmul(pack_matrix(a), pack_matrix(b))
        with backends.use_backend(backend):
            syn_got = estimator._propagate_matmul(pack_matrix(a), pack_matrix(b))
        assert syn_ref.nnz_estimate == syn_got.nnz_estimate
        assert syn_ref.bits.tobytes() == syn_got.bits.tobytes()


class TestScratchSemantics:
    """Scratch reuse across backend calls must never corrupt results."""

    @pytest.mark.parametrize("backend", _kernel_backends() + ["numpy"])
    def test_round_results_survive_scratch_reuse(self, registry_state, backend):
        with backends.use_backend(backend):
            values_one = np.full(300, 2.5)
            values_two = np.full(300, 7.25)
            first = probabilistic_round(values_one, rng=0)
            first_copy = first.copy()
            second = probabilistic_round(values_two, rng=1)
            # The first result is freshly allocated — reusing the draw
            # scratch for the second call must not alias or clobber it.
            assert np.array_equal(first, first_copy)
            assert not np.shares_memory(first, second)
            assert set(np.unique(first)) <= {2, 3}
            assert set(np.unique(second)) <= {7, 8}

    @pytest.mark.parametrize("backend", _kernel_backends())
    def test_interleaved_sizes_stay_identical(self, registry_state, backend):
        rng = np.random.default_rng(12)
        sizes = [513, 7, 1024, 64, 1]
        for n in sizes:
            v_a = rng.integers(0, 30, n).astype(np.float64)
            v_b = rng.integers(0, 30, n).astype(np.float64)
            with backends.use_backend("numpy"):
                expected = density_map_vector_estimate(v_a, v_b, 1e5)
            with backends.use_backend(backend):
                got = density_map_vector_estimate(v_a, v_b, 1e5)
            assert got == expected


class TestCliBackendFlag:
    def test_estimators_reports_backend(self, registry_state, capsys, monkeypatch):
        from repro.cli import main

        # Without numba the requested backend falls back to numpy.
        expected = "numba" if backends.numba_importable() else "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["estimators", "--backend", "numba"]) == 0
        out = capsys.readouterr().out
        assert f"kernel backend: {expected}" in out
        # The flag exports the selection for worker processes.
        assert os.environ[breg.BACKEND_ENV] == "numba"

    def test_info_reports_backend(self, registry_state, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        assert "backend:" in capsys.readouterr().out

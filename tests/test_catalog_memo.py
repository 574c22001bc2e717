"""Tests for the memoized estimation results table (repro.catalog.memo)."""

import collections
import threading
import time

import pytest

from conftest import array_footprint
from repro.catalog.memo import EstimateMemo


class TestBasics:
    def test_get_put_round_trip(self):
        memo = EstimateMemo()
        memo.put("fp1", "MNC", "nnz", 123.0)
        assert memo.get("fp1", "MNC", "nnz") == 123.0
        assert len(memo) == 1

    def test_miss_returns_default(self):
        memo = EstimateMemo()
        assert memo.get("fp", "MNC", "nnz") is None
        assert memo.get("fp", "MNC", "nnz", default=-1.0) == -1.0

    def test_zero_is_a_valid_cached_value(self):
        memo = EstimateMemo()
        memo.put("fp", "MNC", "nnz", 0.0)
        assert memo.get("fp", "MNC", "nnz", default=-1.0) == 0.0

    def test_keys_are_triples(self):
        memo = EstimateMemo()
        memo.put("fp", "MNC", "nnz", 1.0)
        memo.put("fp", "MNC Basic", "nnz", 2.0)
        memo.put("fp", "MNC", "synopsis", "s")
        assert memo.get("fp", "MNC", "nnz") == 1.0
        assert memo.get("fp", "MNC Basic", "nnz") == 2.0
        assert memo.get("fp", "MNC", "synopsis") == "s"

    def test_memoize_computes_once(self):
        memo = EstimateMemo()
        calls = []

        def compute():
            calls.append(1)
            return 7.0

        assert memo.memoize("fp", "exact", "nnz", compute) == 7.0
        assert memo.memoize("fp", "exact", "nnz", compute) == 7.0
        assert len(calls) == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            EstimateMemo(max_entries=0)


class TestLruBound:
    def test_entry_bound_enforced(self):
        memo = EstimateMemo(max_entries=3)
        for index in range(5):
            memo.put(f"fp{index}", "MNC", "nnz", float(index))
        assert len(memo) == 3
        assert memo.get("fp0", "MNC", "nnz") is None
        assert memo.get("fp4", "MNC", "nnz") == 4.0

    def test_get_refreshes_recency(self):
        memo = EstimateMemo(max_entries=2)
        memo.put("a", "MNC", "nnz", 1.0)
        memo.put("b", "MNC", "nnz", 2.0)
        memo.get("a", "MNC", "nnz")
        memo.put("c", "MNC", "nnz", 3.0)  # evicts "b", not "a"
        assert memo.get("a", "MNC", "nnz") == 1.0
        assert memo.get("b", "MNC", "nnz") is None


class TestInvalidation:
    def _seeded(self):
        memo = EstimateMemo()
        memo.put("fp1", "MNC", "nnz", 1.0)
        memo.put("fp1", "DMap", "nnz", 2.0)
        memo.put("fp2", "MNC", "nnz", 3.0)
        return memo

    def test_invalidate_by_fingerprint(self):
        memo = self._seeded()
        assert memo.invalidate(fingerprint="fp1") == 2
        assert memo.get("fp1", "MNC", "nnz") is None
        assert memo.get("fp2", "MNC", "nnz") == 3.0

    def test_invalidate_by_estimator(self):
        memo = self._seeded()
        assert memo.invalidate(estimator="MNC") == 2
        assert memo.get("fp1", "DMap", "nnz") == 2.0

    def test_invalidate_by_both(self):
        memo = self._seeded()
        assert memo.invalidate(fingerprint="fp1", estimator="MNC") == 1
        assert memo.get("fp1", "DMap", "nnz") == 2.0
        assert memo.get("fp2", "MNC", "nnz") == 3.0

    def test_clear(self):
        memo = self._seeded()
        memo.clear()
        assert len(memo) == 0

    def test_stats(self):
        memo = self._seeded()
        memo.get("fp1", "MNC", "nnz")
        memo.get("nope", "MNC", "nnz")
        stats = memo.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 3


class TestDependencyInvalidation:
    """Partial invalidation via the ``depends_on`` leaf-dependency index."""

    def test_invalidate_dependency_evicts_derived_entry(self):
        memo = EstimateMemo()
        memo.put("root", "MNC", "nnz", 9.0, depends_on=["leafA", "leafB"])
        memo.put("other", "MNC", "nnz", 5.0, depends_on=["leafC"])
        assert memo.invalidate(fingerprint="leafA") == 1
        assert memo.get("root", "MNC", "nnz") is None
        assert memo.get("other", "MNC", "nnz") == 5.0

    def test_own_fingerprint_still_invalidates(self):
        memo = EstimateMemo()
        memo.put("root", "MNC", "nnz", 9.0, depends_on=["leafA"])
        assert memo.invalidate(fingerprint="root") == 1
        assert memo.get("root", "MNC", "nnz") is None

    def test_estimator_filter_applies_to_dependents(self):
        memo = EstimateMemo()
        memo.put("root", "MNC", "nnz", 9.0, depends_on=["leaf"])
        memo.put("root", "DMap", "nnz", 8.0, depends_on=["leaf"])
        assert memo.invalidate(fingerprint="leaf", estimator="MNC") == 1
        assert memo.get("root", "MNC", "nnz") is None
        assert memo.get("root", "DMap", "nnz") == 8.0

    def test_reput_replaces_dependencies(self):
        memo = EstimateMemo()
        memo.put("root", "MNC", "nnz", 9.0, depends_on=["leafA"])
        memo.put("root", "MNC", "nnz", 10.0, depends_on=["leafB"])
        # The stale leafA edge is gone; only leafB evicts the entry now.
        assert memo.invalidate(fingerprint="leafA") == 0
        assert memo.get("root", "MNC", "nnz") == 10.0
        assert memo.invalidate(fingerprint="leafB") == 1

    def test_lru_eviction_unlinks_dependencies(self):
        memo = EstimateMemo(max_entries=2)
        memo.put("r1", "MNC", "nnz", 1.0, depends_on=["leaf"])
        memo.put("r2", "MNC", "nnz", 2.0)
        memo.put("r3", "MNC", "nnz", 3.0)  # evicts r1
        assert memo.stats()["dependency_tracked"] == 0
        assert memo.invalidate(fingerprint="leaf") == 0

    def test_memoize_records_dependencies(self):
        memo = EstimateMemo()
        memo.memoize("root", "MNC", "nnz", lambda: 4.0, depends_on=["leaf"])
        assert memo.stats()["dependency_tracked"] == 1
        assert memo.invalidate(fingerprint="leaf") == 1

    def test_clear_resets_dependency_index(self):
        memo = EstimateMemo()
        memo.put("root", "MNC", "nnz", 1.0, depends_on=["leaf"])
        memo.clear()
        assert memo.stats()["dependency_tracked"] == 0
        memo.put("fresh", "MNC", "nnz", 2.0, depends_on=["leaf"])
        assert memo.invalidate(fingerprint="leaf") == 1

    def test_shared_dependency_evicts_all_dependents(self):
        memo = EstimateMemo()
        memo.put("r1", "MNC", "nnz", 1.0, depends_on=["leaf"])
        memo.put("r2", "MNC", "nnz", 2.0, depends_on=["leaf", "other"])
        memo.put("r3", "MNC", "nnz", 3.0, depends_on=["other"])
        assert memo.invalidate(fingerprint="leaf") == 2
        assert memo.get("r3", "MNC", "nnz") == 3.0


class TestPartialInvalidationThroughService:
    """A streaming delta on one leaf evicts only results derived from it."""

    def _matrices(self):
        from repro.matrix.random import random_sparse

        a = random_sparse(20, 16, 0.2, seed=11)
        b = random_sparse(16, 12, 0.2, seed=22)
        return a, b

    def test_untouched_subexpression_memo_survives_delta(self):
        import numpy as np

        from repro.catalog.service import EstimationService
        from repro.core.incremental import AppendRows, IncrementalSketch
        from repro.ir.nodes import ewise_mult, leaf, matmul

        a, b = self._matrices()
        service = EstimationService("mnc")
        old_fp_a = service.register(a, name="A")
        fp_b = service.register(b, name="B")

        expr_touched = matmul(leaf(a), leaf(b))
        expr_untouched = ewise_mult(leaf(b), leaf(b))
        touched_root = service.estimate(expr_touched)["fingerprint"]
        untouched_root = service.estimate(expr_untouched)["fingerprint"]
        key = service._estimator_key(service.estimator)
        assert service.memo.get(touched_root, key, "nnz") is not None
        assert service.memo.get(untouched_root, key, "nnz") is not None

        incremental = IncrementalSketch(a)
        delta = AppendRows([np.array([0, 3, 7])])
        new_fp_a = service.apply_update("A", incremental, delta)

        # The delta rebinds the name and evicts exactly the touched slice.
        assert service.resolve("A") == new_fp_a
        assert new_fp_a != old_fp_a
        assert service.memo.get(touched_root, key, "nnz") is None
        assert service.memo.get(untouched_root, key, "nnz") is not None
        # The stale leaf sketch left the store; B's and the patched one stay.
        assert service.store.get(old_fp_a) is None
        assert service.store.get(fp_b) is not None
        patched = service.store.get(new_fp_a)
        assert patched is not None
        assert patched.shape == (21, 16)

        # The untouched expression still answers from the memo.
        assert service.estimate(expr_untouched)["cached"] is True

    def test_repeated_deltas_keep_evicting_current_results(self):
        import numpy as np

        from repro.catalog.service import EstimationService
        from repro.core.incremental import (
            AppendRows,
            DeleteRows,
            IncrementalSketch,
        )
        from repro.core.sketch import MNCSketch
        from repro.ir.nodes import leaf, matmul

        a, b = self._matrices()
        service = EstimationService("mnc")
        service.register(a, name="A")
        service.register(b, name="B")
        incremental = IncrementalSketch(a)

        for delta in (
            AppendRows([np.array([1, 2])]),
            DeleteRows([0]),
            AppendRows([np.array([5])]),
        ):
            fp = service.apply_update("A", incremental, delta)
            stored = service.store.get(fp)
            assert stored is not None
            rebuilt = MNCSketch.from_matrix(incremental.to_matrix())
            np.testing.assert_array_equal(stored.hr, rebuilt.hr)
            np.testing.assert_array_equal(stored.hc, rebuilt.hc)

        # The final stored sketch answers estimation identically to a
        # from-scratch registration of the mutated matrix.
        mutated = incremental.to_matrix()
        fresh = EstimationService("mnc")
        fresh.register(mutated, name="A")
        fresh.register(b, name="B")
        got = service.estimate(matmul(leaf(mutated), leaf(b)))["nnz"]
        want = fresh.estimate(matmul(leaf(mutated), leaf(b)))["nnz"]
        assert got == want


class TestConcurrency:
    def test_parallel_memoize_no_lost_updates(self):
        memo = EstimateMemo()
        barrier = threading.Barrier(4)
        results = []

        def worker(worker_id):
            barrier.wait()
            for index in range(100):
                value = memo.memoize(
                    f"fp{index % 10}", "MNC", "nnz", lambda: float(index % 10)
                )
                results.append(value == float(index % 10))

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(results) and len(results) == 400
        assert len(memo) == 10

    def test_memoize_single_writer_per_key(self):
        """Hammer one key from many threads: compute runs exactly once."""
        memo = EstimateMemo()
        barrier = threading.Barrier(8)
        computes = []
        values = []

        def compute():
            computes.append(1)
            time.sleep(0.02)  # widen the window so misses really overlap
            return 42.0

        def worker():
            barrier.wait()
            values.append(memo.memoize("hot", "MNC", "nnz", compute))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(computes) == 1
        assert values == [42.0] * 8
        stats = memo.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 7
        assert stats["compute_waits"] == 7

    def test_memoize_many_keys_compute_once_each(self):
        """Threads race over a keyspace; every key computes exactly once."""
        memo = EstimateMemo()
        barrier = threading.Barrier(8)
        computed = collections.Counter()
        counter_lock = threading.Lock()

        def worker():
            barrier.wait()
            for index in range(200):
                key = f"fp{index % 16}"

                def compute(key=key):
                    with counter_lock:
                        computed[key] += 1
                    return key

                assert memo.memoize(key, "MNC", "nnz", compute) == key

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(computed) == {f"fp{i}" for i in range(16)}
        assert all(calls == 1 for calls in computed.values())

    def test_memoize_failed_compute_promotes_a_waiter(self):
        """A raising compute wakes waiters; one of them recomputes."""
        memo = EstimateMemo()
        barrier = threading.Barrier(2)
        attempts = []
        outcomes = []
        attempts_lock = threading.Lock()

        def compute():
            with attempts_lock:
                attempts.append(1)
                first = len(attempts) == 1
            time.sleep(0.02)
            if first:
                raise RuntimeError("transient failure")
            return 7.0

        def worker():
            barrier.wait()
            try:
                outcomes.append(memo.memoize("flaky", "MNC", "nnz", compute))
            except RuntimeError:
                outcomes.append("raised")

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly one caller saw the failure; the survivor recomputed.
        assert sorted(outcomes, key=str) == [7.0, "raised"]
        assert memo.get("flaky", "MNC", "nnz") == 7.0

    def test_concurrent_put_and_memoize_lost_update_free(self):
        """Direct puts racing memoize never leave the memo torn or stale
        relative to both writers (one of the written values survives)."""
        memo = EstimateMemo()
        barrier = threading.Barrier(4)

        def putter():
            barrier.wait()
            for index in range(500):
                memo.put("contended", "MNC", "nnz", 1.0)

        def memoizer():
            barrier.wait()
            for index in range(500):
                value = memo.memoize("contended", "MNC", "nnz", lambda: 1.0)
                assert value == 1.0

        threads = [
            threading.Thread(target=putter),
            threading.Thread(target=putter),
            threading.Thread(target=memoizer),
            threading.Thread(target=memoizer),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert memo.get("contended", "MNC", "nnz") == 1.0


class _Sized:
    """A memo value that reports its own size, like a synopsis."""

    def __init__(self, nbytes):
        self.nbytes = nbytes

    def size_bytes(self):
        return self.nbytes


def _charge(nbytes):
    from repro.catalog.memo import ENTRY_OVERHEAD_BYTES

    return ENTRY_OVERHEAD_BYTES + nbytes


class TestByteBudget:
    """The memo's byte budget: charges, LRU eviction by bytes, release."""

    def test_bytes_evict_in_lru_order(self):
        memo = EstimateMemo(budget_bytes=3 * _charge(100))
        for name in ("a", "b", "c"):
            memo.put(name, "MNC", "synopsis", _Sized(100))
        memo.get("a", "MNC", "synopsis")  # "b" is now least recent
        memo.put("d", "MNC", "synopsis", _Sized(100))
        assert ("b", "MNC", "synopsis") not in memo
        for name in ("a", "c", "d"):
            assert (name, "MNC", "synopsis") in memo
        memo.put("e", "MNC", "synopsis", _Sized(2 * 100 + _charge(0)))
        # Two more entries had to go, oldest first: "c", then "a".
        assert [key[0] for key in memo._entries] == ["d", "e"]
        stats = memo.stats()
        assert stats["evictions"] == 3
        assert stats["bytes_used"] == _charge(100) + _charge(200 + _charge(0))
        assert stats["bytes_used"] <= stats["budget_bytes"] == 3 * _charge(100)

    def test_scalars_are_charged_the_entry_overhead(self):
        memo = EstimateMemo()
        memo.put("fp", "MNC", "nnz", 12.0)
        memo.put("fp", "auto", "route", (12.0, {"tier": "mnc"}))
        assert memo.stats()["bytes_used"] == 2 * _charge(0)

    def test_reput_replaces_its_charge(self):
        memo = EstimateMemo(budget_bytes=10 * _charge(100))
        memo.put("a", "MNC", "synopsis", _Sized(100))
        memo.put("a", "MNC", "synopsis", _Sized(300))
        assert memo.stats()["bytes_used"] == _charge(300)
        memo.put("a", "MNC", "synopsis", _Sized(50))
        assert memo.stats()["bytes_used"] == _charge(50)
        assert len(memo) == 1 and memo.stats()["evictions"] == 0

    def test_invalidate_and_clear_release_bytes(self):
        memo = EstimateMemo()
        memo.put("root", "MNC", "synopsis", _Sized(100), depends_on=["leaf"])
        memo.put("root", "DMap", "synopsis", _Sized(200))
        memo.put("other", "MNC", "synopsis", _Sized(400))
        memo.put("third", "MNC", "nnz", 1.0)
        assert memo.invalidate(fingerprint="leaf") == 1
        assert memo.stats()["bytes_used"] == (
            _charge(200) + _charge(400) + _charge(0)
        )
        assert memo.invalidate(estimator="DMap") == 1
        assert memo.stats()["bytes_used"] == _charge(400) + _charge(0)
        memo.clear()
        assert memo.stats()["bytes_used"] == 0
        memo.put("again", "MNC", "synopsis", _Sized(100))
        assert memo.stats()["bytes_used"] == _charge(100)

    def test_byte_eviction_unlinks_dependencies(self):
        memo = EstimateMemo(budget_bytes=2 * _charge(100))
        memo.put("r1", "MNC", "synopsis", _Sized(100), depends_on=["leaf"])
        memo.put("r2", "MNC", "synopsis", _Sized(100), depends_on=["other"])
        memo.put("r3", "MNC", "synopsis", _Sized(100))  # evicts r1 by bytes
        assert ("r1", "MNC", "synopsis") not in memo
        assert memo.stats()["dependency_tracked"] == 1
        assert memo.invalidate(fingerprint="leaf") == 0
        assert memo.invalidate(fingerprint="other") == 1

    def test_oversized_entry_is_returned_but_not_admitted(self):
        memo = EstimateMemo(budget_bytes=_charge(100))
        memo.put("big", "MNC", "synopsis", _Sized(100))
        # A re-put too large for the budget drops the stale value too.
        memo.put("big", "MNC", "synopsis", _Sized(101))
        assert len(memo) == 0 and memo.stats()["bytes_used"] == 0
        huge = _Sized(10 * _charge(100))
        assert memo.memoize("huge", "MNC", "synopsis", lambda: huge) is huge
        assert len(memo) == 0 and memo.stats()["bytes_used"] == 0

    def test_oversized_memoize_waiters_all_finish(self):
        """Waiters on a value the memo cannot keep take the writer's value
        instead of hanging or recomputing it one after another."""
        memo = EstimateMemo(budget_bytes=_charge(100))
        barrier = threading.Barrier(6)
        computes = []
        values = []

        def compute():
            computes.append(1)
            time.sleep(0.05)  # widen the window so every waiter queues
            return _Sized(1 << 20)

        def worker():
            barrier.wait()
            values.append(memo.memoize("huge", "MNC", "synopsis", compute))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert len(values) == 6
        assert len(set(map(id, values))) == len(computes)
        assert len(computes) < 6
        assert len(memo) == 0 and memo.stats()["bytes_used"] == 0

    def test_threaded_accounting_matches_live_entries(self):
        """Concurrent put/memoize/invalidate leave ``bytes_used`` equal to
        the charges of the live entries, within the budget."""
        from repro.catalog.memo import entry_charge

        budget = 40 * _charge(100)
        memo = EstimateMemo(budget_bytes=budget)
        barrier = threading.Barrier(6)
        over_budget = []

        def worker(worker_id):
            barrier.wait()
            for index in range(400):
                key = f"fp{(index * 7 + worker_id) % 97}"
                size = (index * 37 + worker_id * 11) % 300
                if index % 5 == 4:
                    memo.invalidate(fingerprint=f"leaf{index % 3}")
                elif index % 2:
                    memo.put(
                        key, "MNC", "synopsis", _Sized(size),
                        depends_on=[f"leaf{index % 3}"],
                    )
                else:
                    memo.memoize(
                        key, "MNC", "synopsis", lambda size=size: _Sized(size)
                    )
                if memo.stats()["bytes_used"] > budget:
                    over_budget.append(index)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not over_budget
        with memo._lock:
            live = sum(entry_charge(value) for value in memo._entries.values())
        stats = memo.stats()
        assert stats["bytes_used"] == live <= budget
        assert stats["evictions"] > 0


def _array_footprint(memo):
    """Bytes of every distinct array reachable from the memo's values,
    float64 views included; a view counts its whole base buffer."""
    with memo._lock:
        values = list(memo._entries.values())
    return array_footprint(values)


class TestFootprintThroughService:
    def test_cold_dags_keep_real_footprint_within_budget(self):
        """A cold stream of DAGs over 2000-side leaves never holds more
        array bytes in the memo than it charges, nor more than its budget,
        although Algorithm 1 runs on memoized synopses throughout."""
        import numpy as np

        from repro.catalog.service import EstimationService
        from repro.ir.nodes import ewise_add, ewise_mult, leaf, matmul, transpose
        from repro.matrix.random import (
            banded_matrix,
            permutation_matrix,
            power_law_columns,
            random_sparse,
        )

        side = 2000
        matrices = [
            random_sparse(side, side, 2e-3, seed=1),
            random_sparse(side, side, 5e-4, seed=2),
            power_law_columns(side, side, 4000, seed=3),
            permutation_matrix(side, seed=4),
            banded_matrix(side, 2),
        ]
        budget = 1 << 20  # ~30 propagated 2000-side synopses
        service = EstimationService("mnc", memo=EstimateMemo(budget_bytes=budget))
        for index, matrix in enumerate(matrices):
            service.register(matrix, name=f"L{index}")
        rng = np.random.default_rng(7)
        binary = (matmul, ewise_mult, ewise_add)
        shared = []

        def node(depth):
            if depth == 0:
                return leaf(matrices[rng.integers(len(matrices))])
            if shared and rng.random() < 0.3:
                return shared[rng.integers(len(shared))]
            op = rng.integers(4)
            built = (
                transpose(node(depth - 1)) if op == 3
                else binary[op](node(depth - 1), node(depth - 1))
            )
            shared.append(built)
            return built

        peak = 0
        for _ in range(300):
            service.estimate(node(int(rng.integers(2, 5))))
            footprint = _array_footprint(service.memo)
            stats = service.memo.stats()
            assert footprint <= stats["bytes_used"] <= budget
            peak = max(peak, footprint)
        stats = service.memo.stats()
        assert stats["evictions"] > 0 and stats["hits"] > 0
        assert peak > budget // 2

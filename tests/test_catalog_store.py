"""Tests for the byte-budgeted LRU sketch store (repro.catalog.store)."""

import hashlib
import threading

import numpy as np
import pytest

from conftest import full_disk_after_header
from repro.catalog.store import SketchStore, shard_index
from repro.core import serialize
from repro.core.serialize import save_sketch
from repro.core.sketch import MNCSketch
from repro.errors import SketchError
from repro.matrix.random import random_sparse
from repro.observability.metrics import metrics_snapshot


def _sketch(seed, m=30, n=24, sparsity=0.2):
    return MNCSketch.from_matrix(random_sparse(m, n, sparsity, seed=seed))


class TestBasicCache:
    def test_put_get_round_trip(self):
        store = SketchStore()
        sketch = _sketch(1)
        store.put("k1", sketch)
        assert store.get("k1") is sketch
        assert "k1" in store
        assert len(store) == 1

    def test_miss_returns_none(self):
        store = SketchStore()
        assert store.get("absent") is None
        stats = store.stats()
        assert stats.misses == 1 and stats.hits == 0

    def test_put_same_key_replaces(self):
        store = SketchStore()
        store.put("k", _sketch(1))
        replacement = _sketch(2)
        store.put("k", replacement)
        assert store.get("k") is replacement
        assert len(store) == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(SketchError):
            SketchStore(budget_bytes=0)

    def test_discard(self):
        store = SketchStore()
        store.put("k", _sketch(1))
        assert store.discard("k")
        assert store.get("k") is None
        assert not store.discard("k")
        assert store.bytes_used == 0


class TestBudgetAndEviction:
    def test_lru_eviction_under_budget(self):
        # Sketch sizes vary by seed (all-zero extension vectors are
        # dropped), so compute a budget that holds "a" plus either other
        # entry, but never all three.
        sizes = {seed: _sketch(seed).size_bytes() for seed in (1, 2, 3)}
        budget = sizes[1] + max(sizes[2], sizes[3]) + 8
        store = SketchStore(budget_bytes=budget)
        store.put("a", _sketch(1))
        store.put("b", _sketch(2))
        store.get("a")  # refresh "a"; "b" becomes LRU
        store.put("c", _sketch(3))
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.get("c") is not None
        assert store.stats().evictions == 1

    def test_budget_never_exceeded(self):
        one = _sketch(1)
        budget = int(one.size_bytes() * 2.5)
        store = SketchStore(budget_bytes=budget)
        for seed in range(20):
            store.put(f"k{seed}", _sketch(seed))
            assert store.bytes_used <= budget

    def test_oversized_sketch_never_resident(self, tmp_path):
        small = _sketch(1, m=10, n=8)
        store = SketchStore(
            budget_bytes=small.size_bytes() + 1, spill_dir=tmp_path
        )
        big = _sketch(2, m=500, n=400, sparsity=0.05)
        assert big.size_bytes() > store.budget_bytes
        store.put("big", big)
        assert len(store) == 0
        # ... but it spilled, so it is still readable (as a disk hit).
        loaded = store.get("big")
        assert loaded is not None
        np.testing.assert_array_equal(loaded.hr, big.hr)


class TestSpill:
    def test_evicted_entries_spill_and_reload(self, tmp_path):
        # Budget holds either sketch alone (sizes differ by seed), not both.
        budget = max(_sketch(1).size_bytes(), _sketch(2).size_bytes()) + 8
        store = SketchStore(budget_bytes=budget, spill_dir=tmp_path)
        store.put("a", _sketch(1))
        store.put("b", _sketch(2))  # evicts "a" to disk
        assert (tmp_path / "a.npz").exists()
        reloaded = store.get("a")
        assert reloaded is not None
        np.testing.assert_array_equal(reloaded.hr, _sketch(1).hr)
        stats = store.stats()
        assert stats.spills >= 1 and stats.disk_hits == 1

    def test_no_spill_dir_drops_evictions(self):
        budget = max(_sketch(1).size_bytes(), _sketch(2).size_bytes()) + 8
        store = SketchStore(budget_bytes=budget)
        store.put("a", _sketch(1))
        store.put("b", _sketch(2))
        assert store.get("a") is None

    def test_failed_spill_leaves_key_repairable(self, tmp_path, monkeypatch):
        """A spill that dies mid-write leaves no torn file under the key,
        so the key reads as a miss and a later spill writes it whole."""
        small = _sketch(1, m=10, n=8)
        store = SketchStore(budget_bytes=small.size_bytes() + 1, spill_dir=tmp_path)
        big = _sketch(2, m=500, n=400, sparsity=0.05)
        with monkeypatch.context() as patch:
            patch.setattr(serialize, "sketch_to_arrays", full_disk_after_header)
            with pytest.raises(OSError):
                store.put("big", big)  # oversized: spills straight to disk
        assert list(tmp_path.iterdir()) == []
        assert store.get("big") is None
        store.put("big", big)
        np.testing.assert_array_equal(store.get("big").hr, big.hr)


class TestWarmStartPersist:
    def test_persist_then_warm_start_round_trips(self, tmp_path):
        store = SketchStore()
        store.put("alpha", _sketch(1))
        store.put("beta", _sketch(2))
        assert store.persist(tmp_path) == 2

        fresh = SketchStore()
        keys = fresh.warm_start(tmp_path)
        assert sorted(keys) == ["alpha", "beta"]
        np.testing.assert_array_equal(
            fresh.get("alpha").hr, store.get("alpha").hr
        )

    def test_warm_start_orders_by_filename(self, tmp_path):
        for name, seed in [("w-0", 3), ("w-1", 4), ("w-2", 5)]:
            save_sketch(tmp_path / f"{name}.npz", _sketch(seed))
        keys = SketchStore().warm_start(tmp_path)
        assert keys == ["w-0", "w-1", "w-2"]

    def test_warm_start_missing_directory(self, tmp_path):
        with pytest.raises(SketchError):
            SketchStore().warm_start(tmp_path / "nope")

    def test_persist_needs_target(self):
        with pytest.raises(SketchError):
            SketchStore().persist()

    def test_warm_start_skips_corrupt_files(self, tmp_path):
        """Partially-written / corrupt npz files are skipped and counted,
        not raised mid-scan (ISSUE 7 satellite)."""
        save_sketch(tmp_path / "good.npz", _sketch(1))
        (tmp_path / "truncated.npz").write_bytes(b"PK\x03\x04 not a real zip")
        (tmp_path / "empty.npz").write_bytes(b"")
        (tmp_path / "notzip.npz").write_text("plain text, no zip magic")

        store = SketchStore()
        keys = store.warm_start(tmp_path)
        assert keys == ["good"]
        assert store.stats().warm_skipped == 3
        assert store.get("good") is not None

    def test_warm_start_skips_wrong_schema_npz(self, tmp_path):
        """A valid npz that is not a sketch (missing fields) is skipped."""
        save_sketch(tmp_path / "ok.npz", _sketch(2))
        np.savez(tmp_path / "alien.npz", other=np.arange(3))
        store = SketchStore()
        assert store.warm_start(tmp_path) == ["ok"]
        assert store.stats().warm_skipped == 1

    def test_warm_start_skips_future_version(self, tmp_path):
        """A payload from a future format version is skipped, not fatal."""
        save_sketch(tmp_path / "ok.npz", _sketch(3))
        arrays = dict(np.load(tmp_path / "ok.npz"))
        arrays["version"] = np.array([99], dtype=np.int64)
        np.savez(tmp_path / "future.npz", **arrays)
        store = SketchStore()
        assert store.warm_start(tmp_path) == ["ok"]
        assert store.stats().warm_skipped == 1

    def test_warm_start_concurrent_callers(self, tmp_path):
        """Several threads warm-starting one directory (some files corrupt)
        all complete; every good key ends up resident."""
        good = {f"g{i}": _sketch(i) for i in range(6)}
        for key, sketch in good.items():
            save_sketch(tmp_path / f"{key}.npz", sketch)
        (tmp_path / "bad.npz").write_bytes(b"\x00" * 16)

        store = SketchStore()
        errors = []
        barrier = threading.Barrier(4)

        def warm():
            try:
                barrier.wait()
                loaded = store.warm_start(tmp_path)
                assert sorted(loaded) == sorted(good)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=warm) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for key in good:
            assert store.get(key) is not None
        assert store.stats().warm_skipped == 4  # the bad file, once per call


class TestGauges:
    def test_gauges_describe_the_whole_store(self):
        """``catalog.store.{bytes_used,entries,budget_bytes}`` are store
        totals after puts spread over 8 shards, a discard and an eviction —
        not the values of whichever shard changed last."""
        sketch = _sketch(1)
        # Each shard's slice holds exactly two copies of ``sketch``.
        store = SketchStore(
            num_shards=8, budget_bytes=8 * (2 * sketch.size_bytes() + 1)
        )
        by_shard = {}
        for i in range(256):
            key = hashlib.blake2b(i.to_bytes(2, "big")).hexdigest()
            by_shard.setdefault(shard_index(key, 8), []).append(key)
        assert sorted(by_shard) == list(range(8))
        for keys in by_shard.values():
            for key in keys[:2]:
                store.put(key, sketch)
        store.discard(by_shard[0][0])
        store.put(by_shard[1][2], sketch)  # shard 1 is full: evicts its LRU
        stats = store.stats()
        assert (stats.entries, stats.evictions) == (15, 1)
        gauges = metrics_snapshot().gauges
        assert gauges["catalog.store.bytes_used"] == stats.bytes_used
        assert gauges["catalog.store.entries"] == stats.entries
        assert gauges["catalog.store.budget_bytes"] == stats.budget_bytes


class TestConcurrency:
    def test_hammering_threads_no_lost_updates_budget_respected(self):
        """Acceptance criterion: >= 4 threads on one store, no lost updates,
        byte budget never exceeded."""
        sketches = {f"k{seed}": _sketch(seed) for seed in range(12)}
        budget = 6 * next(iter(sketches.values())).size_bytes()
        store = SketchStore(budget_bytes=budget)
        errors = []
        budget_violations = []
        barrier = threading.Barrier(6)

        def hammer(worker):
            try:
                barrier.wait()
                for round_no in range(60):
                    key = f"k{(worker * 7 + round_no) % 12}"
                    cached = store.get(key)
                    if cached is None:
                        store.put(key, sketches[key])
                        cached = store.get(key)
                    # A lost update would surface as wrong sketch content.
                    if cached is not None:
                        np.testing.assert_array_equal(
                            cached.hr, sketches[key].hr
                        )
                    if store.bytes_used > budget:
                        budget_violations.append(store.bytes_used)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert not budget_violations
        assert store.bytes_used <= budget
        stats = store.stats()
        # Every put either stayed resident or was evicted; nothing vanished
        # without being accounted for.
        assert stats.puts >= 12
        assert stats.entries == len(store.keys())

    def test_concurrent_memo_style_reads(self):
        store = SketchStore()
        sketch = _sketch(42)
        store.put("shared", sketch)
        results = []
        barrier = threading.Barrier(4)

        def read():
            barrier.wait()
            for _ in range(200):
                results.append(store.get("shared") is sketch)

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(results) and len(results) == 800

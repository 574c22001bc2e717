"""Tests for the sharded store: ``SketchStore(num_shards=...)``, the TTL
tier, and concurrent warm start."""

import threading

import numpy as np
import pytest

from repro.catalog.store import SketchStore, shard_index
from repro.core.serialize import save_sketch
from repro.core.sketch import MNCSketch
from repro.errors import SketchError
from repro.matrix.random import random_sparse


def _sketch(seed, m=30, n=24, sparsity=0.2):
    return MNCSketch.from_matrix(random_sparse(m, n, sparsity, seed=seed))


class TestRouter:
    def test_hex_prefix_routing_is_deterministic(self):
        key = "deadbeefcafe0123"
        assert shard_index(key, 8) == shard_index(key, 8)
        assert shard_index(key, 8) == int("deadbeef", 16) % 8

    def test_hex_keys_spread_across_shards(self):
        # Real fingerprints are uniform hex; synthesize a spread of them.
        import hashlib

        shards = {
            shard_index(hashlib.blake2b(bytes([i])).hexdigest(), 8)
            for i in range(64)
        }
        assert len(shards) == 8

    def test_non_hex_key_still_routes(self):
        index = shard_index("not-hex-at-all", 4)
        assert 0 <= index < 4
        assert shard_index("not-hex-at-all", 4) == index

    def test_single_shard_everything_routes_to_zero(self):
        assert shard_index("abc123", 1) == 0
        assert shard_index("zzz", 1) == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(SketchError):
            SketchStore(num_shards=0)


class TestShardedBasics:
    def test_put_get_round_trip(self):
        store = SketchStore(num_shards=4)
        sketch = _sketch(1)
        store.put("aa11", sketch)
        assert store.get("aa11") is sketch
        assert "aa11" in store
        assert len(store) == 1

    def test_keys_and_discard(self):
        store = SketchStore(num_shards=4)
        for index in range(10):
            store.put(f"{index:02x}key", _sketch(index))
        assert len(store) == 10
        assert sorted(store.keys()) == sorted(f"{i:02x}key" for i in range(10))
        assert store.discard("00key")
        assert not store.discard("00key")
        assert len(store) == 9

    def test_clear(self):
        store = SketchStore(num_shards=4)
        for index in range(6):
            store.put(f"{index:02x}", _sketch(index))
        store.clear()
        assert len(store) == 0
        assert store.bytes_used == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(SketchError):
            SketchStore(num_shards=8, budget_bytes=0)
        with pytest.raises(SketchError):
            SketchStore(num_shards=8, ttl_seconds=0)

    def test_stats_aggregate_across_shards(self):
        store = SketchStore(num_shards=4, budget_bytes=1 << 20)
        store.put("00a", _sketch(1))
        store.put("01b", _sketch(2))
        store.get("00a")
        store.get("missing")
        stats = store.stats()
        assert stats.puts == 2
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.entries == 2
        assert stats.budget_bytes == 4 * ((1 << 20) // 4)

    def test_budget_split_evicts_within_shard(self):
        one = _sketch(1)
        # Two shards; each shard's budget holds ~1.5 sketches.
        store = SketchStore(
            num_shards=2, budget_bytes=3 * one.size_bytes()
        )
        for index in range(12):
            store.put(f"{index:x}0", _sketch(index % 3))
        assert store.bytes_used <= 3 * one.size_bytes()
        assert store.stats().evictions > 0


class TestTtlTier:
    def test_expired_entries_demote_to_disk(self, tmp_path):
        clock = {"now": 0.0}
        store = SketchStore(
            num_shards=2,
            spill_dir=tmp_path,
            ttl_seconds=10.0,
            clock=lambda: clock["now"],
        )
        sketch = _sketch(3)
        store.put("0abc", sketch)
        clock["now"] = 5.0
        assert store.get("0abc") is sketch  # still fresh; touch refreshes
        clock["now"] = 16.0  # 11s idle > ttl
        assert store.evict_expired() == 1
        assert store.ttl_evictions == 1
        assert len(store) == 0
        assert (tmp_path / "0abc.npz").exists()
        # The disk tier still answers for it.
        reloaded = store.get("0abc")
        assert reloaded is not None
        np.testing.assert_array_equal(reloaded.hr, sketch.hr)

    def test_touch_refreshes_ttl(self, tmp_path):
        clock = {"now": 0.0}
        store = SketchStore(
            num_shards=1,
            spill_dir=tmp_path,
            ttl_seconds=10.0,
            clock=lambda: clock["now"],
        )
        store.put("0a", _sketch(1))
        for step in range(1, 6):
            clock["now"] = step * 8.0  # each get lands before expiry
            assert store.get("0a") is not None
        assert store.ttl_evictions == 0

    def test_lazy_sweep_on_shard_touch(self, tmp_path):
        clock = {"now": 0.0}
        store = SketchStore(
            num_shards=1,
            spill_dir=tmp_path,
            ttl_seconds=5.0,
            clock=lambda: clock["now"],
        )
        store.put("0old", _sketch(1))
        clock["now"] = 100.0
        # Touching the shard with an unrelated put sweeps the expired key.
        store.put("0new", _sketch(2))
        assert store.ttl_evictions == 1
        assert store.keys() == ["0new"]

    def test_no_ttl_means_no_demotion(self):
        store = SketchStore(num_shards=2)
        store.put("0a", _sketch(1))
        assert store.evict_expired() == 0
        assert len(store) == 1


class TestWarmStartPersist:
    def test_persist_then_warm_start_round_trips(self, tmp_path):
        store = SketchStore(num_shards=4)
        originals = {}
        for index in range(10):
            key = f"{index:02x}shard"
            originals[key] = _sketch(index)
            store.put(key, originals[key])
        assert store.persist(tmp_path) == 10

        fresh = SketchStore(num_shards=4)
        keys = fresh.warm_start(tmp_path)
        assert keys == sorted(originals)
        for key, sketch in originals.items():
            np.testing.assert_array_equal(fresh.get(key).hr, sketch.hr)

    def test_warm_start_matches_flat_store(self, tmp_path):
        """Sharded and flat stores load identical key sets from one dir."""
        for index in range(8):
            save_sketch(tmp_path / f"{index:x}0aa.npz", _sketch(index))
        flat = SketchStore()
        sharded = SketchStore(num_shards=3)
        assert sharded.warm_start(tmp_path) == flat.warm_start(tmp_path)

    def test_warm_start_skips_corrupt_files(self, tmp_path):
        save_sketch(tmp_path / "00good.npz", _sketch(1))
        save_sketch(tmp_path / "ffgood.npz", _sketch(2))
        (tmp_path / "11bad.npz").write_bytes(b"not an npz")
        (tmp_path / "eebad.npz").write_bytes(b"")
        store = SketchStore(num_shards=4)
        assert store.warm_start(tmp_path) == ["00good", "ffgood"]
        assert store.stats().warm_skipped == 2

    def test_warm_start_missing_directory(self, tmp_path):
        with pytest.raises(SketchError):
            SketchStore(num_shards=8).warm_start(tmp_path / "nope")

    def test_warm_start_empty_directory(self, tmp_path):
        assert SketchStore(num_shards=8).warm_start(tmp_path) == []

    def test_warm_start_single_worker(self, tmp_path):
        """A one-shard store loads every file on the calling thread."""
        for index in range(5):
            save_sketch(tmp_path / f"{index:x}1.npz", _sketch(index))
        store = SketchStore(num_shards=1)
        assert store.warm_start(tmp_path) == [f"{i:x}1" for i in range(5)]

    def test_persist_needs_target(self):
        with pytest.raises(SketchError):
            SketchStore(num_shards=8).persist()


class TestTtlWarmStartRace:
    """Regression tests for TTL demotion vs warm_start.

    An early sweep deleted every expired timestamp up front, released the
    shard lock, and then demoted unconditionally — so a warm start (or any
    get/put) landing between collection and demotion had its freshly
    loaded entry demoted straight back to disk while its new timestamp said
    "resident and fresh". Expiry now runs inside the critical section of
    the get/put (and so warm-start admit) that triggers it.
    """

    def test_warm_started_entries_are_ttl_tracked_atomically(self, tmp_path):
        clock = {"now": 0.0}
        for index in range(3):
            save_sketch(tmp_path / f"{index:x}0ws.npz", _sketch(index))
        store = SketchStore(
            num_shards=2,
            spill_dir=tmp_path,
            ttl_seconds=10.0,
            clock=lambda: clock["now"],
        )
        assert len(store.warm_start(tmp_path)) == 3
        # Every resident entry has a timestamp and vice versa.
        for shard in store._shards:
            with shard.lock:
                assert set(shard.touched) == set(shard.entries)
        clock["now"] = 100.0
        assert store.evict_expired() == 3
        assert len(store) == 0

    def test_warm_start_vs_ttl_sweep_hammer(self, tmp_path):
        """Concurrent warm starts and sweeps: nothing lost, books balance."""
        clock = {"now": 0.0}
        clock_lock = threading.Lock()

        def now():
            with clock_lock:
                return clock["now"]

        sketches = {f"{i:x}race": _sketch(i) for i in range(10)}
        for key, sketch in sketches.items():
            save_sketch(tmp_path / f"{key}.npz", sketch)

        store = SketchStore(
            num_shards=2, spill_dir=tmp_path, ttl_seconds=1.0, clock=now
        )
        errors = []
        barrier = threading.Barrier(3)
        stop = threading.Event()

        def warm():
            try:
                barrier.wait()
                for _ in range(15):
                    loaded = store.warm_start(tmp_path)
                    assert sorted(loaded) == sorted(sketches)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
            finally:
                stop.set()

        def sweep():
            try:
                barrier.wait()
                while not stop.is_set():
                    with clock_lock:
                        clock["now"] += 0.4
                    store.evict_expired()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=warm),
            threading.Thread(target=sweep),
            threading.Thread(target=sweep),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Bookkeeping consistency first (before get() re-promotes): every
        # resident key is TTL-tracked and no timestamp outlives its entry —
        # the racy sweep left fresh timestamps pointing at demoted entries.
        for shard in store._shards:
            with shard.lock:
                assert set(shard.touched) == set(shard.entries)
        # Every key still answers from the memory+disk union, intact.
        for key, sketch in sketches.items():
            value = store.get(key)
            assert value is not None
            np.testing.assert_array_equal(value.hr, sketch.hr)


class TestConcurrency:
    def test_hammering_threads_across_shards(self):
        """Many threads over many keys: no lost updates, total budget held."""
        sketches = {f"{seed:02x}conc": _sketch(seed) for seed in range(16)}
        any_size = next(iter(sketches.values())).size_bytes()
        budget = 8 * any_size
        store = SketchStore(num_shards=4, budget_bytes=budget)
        errors = []
        barrier = threading.Barrier(8)

        def hammer(worker):
            try:
                barrier.wait()
                for round_no in range(80):
                    key = f"{(worker * 5 + round_no) % 16:02x}conc"
                    cached = store.get(key)
                    if cached is None:
                        store.put(key, sketches[key])
                        cached = store.get(key)
                    if cached is not None:
                        np.testing.assert_array_equal(
                            cached.hr, sketches[key].hr
                        )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.bytes_used <= budget
        assert store.stats().entries == len(store.keys())

    def test_concurrent_warm_start_callers(self, tmp_path):
        good = {f"{i:x}0warm": _sketch(i) for i in range(6)}
        for key, sketch in good.items():
            save_sketch(tmp_path / f"{key}.npz", sketch)
        (tmp_path / "99bad.npz").write_bytes(b"\x00" * 16)

        store = SketchStore(num_shards=3)
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
        assert store.stats().warm_skipped == 4

    def test_concurrent_ttl_sweeps_and_reads(self, tmp_path):
        """TTL sweeps racing readers never raise or double-count."""
        clock = {"now": 0.0}
        lock = threading.Lock()

        def now():
            with lock:
                return clock["now"]

        store = SketchStore(
            num_shards=2, spill_dir=tmp_path, ttl_seconds=1.0, clock=now
        )
        sketches = {f"{i:x}ttl": _sketch(i) for i in range(8)}
        for key, sketch in sketches.items():
            store.put(key, sketch)
        errors = []
        barrier = threading.Barrier(4)

        def churn(worker):
            try:
                barrier.wait()
                for round_no in range(50):
                    with lock:
                        clock["now"] += 0.1
                    key = f"{(worker + round_no) % 8:x}ttl"
                    value = store.get(key)
                    if value is None:
                        store.put(key, sketches[key])
                    store.evict_expired()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Spilled entries remain loadable.
        for key, sketch in sketches.items():
            value = store.get(key)
            if value is not None:
                np.testing.assert_array_equal(value.hr, sketch.hr)

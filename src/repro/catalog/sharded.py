"""Fingerprint-sharded sketch store for concurrent (serving) workloads.

One :class:`~repro.catalog.store.SketchStore` guards everything with a
single lock — correct, but a multi-tenant server answering many concurrent
requests serializes every cache touch through it. :class:`ShardedSketchStore`
keeps the same interface while partitioning the keyspace by **fingerprint
prefix** across N independent stores:

- each shard has its own lock and its own slice of the byte budget, so
  touches on different shards never contend;
- fingerprints are uniform hex digests (blake2b,
  :mod:`repro.catalog.fingerprint`), so prefix routing balances shards
  without any placement bookkeeping — the :class:`ShardRouter` is a pure
  function of the key;
- an optional **TTL tier** sits above the per-shard LRU: entries idle
  longer than ``ttl_seconds`` are demoted to the disk tier (spill) on the
  next touch of their shard, so a long-running server's memory tracks its
  *current* working set while cold sketches stay one disk hit away;
- ``warm_start`` scans the catalog directory once, routes files to their
  shards, and loads shards **concurrently** (one thread each), tolerating
  corrupt or concurrently-deleted files exactly like the flat store.

All shards may share one spill directory: keys are content fingerprints,
so distinct shards never write the same file, and the on-disk layout stays
the flat ``<fingerprint>.npz`` catalog every other tool
(``repro catalog``, :meth:`SketchStore.warm_start`, the parallel engine's
shared-spill protocol) already understands.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.catalog.store import (
    DEFAULT_BUDGET_BYTES,
    SketchStore,
    StoreStats,
    load_sketch_or_none,
)
from repro.core.sketch import MNCSketch
from repro.errors import SketchError
from repro.observability.metrics import metric_inc

#: Default shard count: enough to make lock contention negligible for a
#: few dozen concurrent request threads, few enough that per-shard budgets
#: stay useful.
DEFAULT_NUM_SHARDS = 8


class ShardRouter:
    """Pure prefix-of-fingerprint shard routing.

    Keys are hex fingerprints; the first ``prefix_len`` hex characters are
    interpreted as an integer and reduced modulo the shard count. Non-hex
    keys (legacy or test keys) fall back to a stable string hash, so
    routing is total — every key maps to exactly one shard, always the
    same one.
    """

    def __init__(self, num_shards: int, prefix_len: int = 8):
        if num_shards < 1:
            raise SketchError(f"num_shards must be positive, got {num_shards}")
        if prefix_len < 1:
            raise SketchError(f"prefix_len must be positive, got {prefix_len}")
        self.num_shards = int(num_shards)
        self.prefix_len = int(prefix_len)

    def shard_for(self, key: str) -> int:
        """The shard index owning *key* (deterministic, uniform for hex)."""
        prefix = key[: self.prefix_len]
        try:
            value = int(prefix, 16)
        except ValueError:
            # Stable non-hex fallback (hash() is salted per process).
            value = sum((i + 1) * b for i, b in enumerate(prefix.encode()))
        return value % self.num_shards


class ShardedSketchStore:
    """Drop-in :class:`SketchStore` replacement partitioned across shards.

    Args:
        num_shards: independent sub-stores (locks + budget slices).
        budget_bytes: *total* in-memory ceiling, split evenly per shard.
        spill_dir: shared spill/catalog directory (flat layout, see module
            docstring); ``None`` disables persistence.
        ttl_seconds: idle lifetime of a resident entry; ``None`` disables
            the TTL tier. Expired entries demote to the disk tier lazily,
            on the next operation that touches their shard (plus
            explicitly via :meth:`evict_expired`).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        num_shards: int = DEFAULT_NUM_SHARDS,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        spill_dir: Optional[str | Path] = None,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_bytes <= 0:
            raise SketchError(f"budget_bytes must be positive, got {budget_bytes}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise SketchError(f"ttl_seconds must be positive, got {ttl_seconds}")
        self.router = ShardRouter(num_shards)
        self.budget_bytes = int(budget_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        per_shard = max(1, self.budget_bytes // num_shards)
        self._shards: List[SketchStore] = [
            SketchStore(budget_bytes=per_shard, spill_dir=self.spill_dir)
            for _ in range(num_shards)
        ]
        #: Per-shard last-touch timestamps, guarded by the shard's own lock.
        self._touched: List[Dict[str, float]] = [{} for _ in range(num_shards)]
        self._ttl_evictions = 0

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    # ------------------------------------------------------------------
    # Core cache protocol (SketchStore-compatible)
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[MNCSketch]:
        """The sketch under *key* (memory or disk tier), or ``None``."""
        index = self.router.shard_for(key)
        self._sweep_shard(index)
        with self._shards[index]._lock:
            sketch = self._shards[index].get(key)
            if sketch is not None:
                self._touch(index, key)
        return sketch

    def put(self, key: str, sketch: MNCSketch) -> None:
        """Insert/refresh *sketch* in its shard, under that shard's budget."""
        index = self.router.shard_for(key)
        self._sweep_shard(index)
        with self._shards[index]._lock:
            self._shards[index].put(key, sketch)
            self._touch(index, key)

    def __contains__(self, key: str) -> bool:
        return key in self._shards[self.router.shard_for(key)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def keys(self) -> List[str]:
        """Resident fingerprints across all shards (shard-major order)."""
        keys: List[str] = []
        for shard in self._shards:
            keys.extend(shard.keys())
        return keys

    @property
    def bytes_used(self) -> int:
        return sum(shard.bytes_used for shard in self._shards)

    def discard(self, key: str, remove_spill: bool = True) -> bool:
        index = self.router.shard_for(key)
        with self._shards[index]._lock:
            self._touched[index].pop(key, None)
        return self._shards[index].discard(key, remove_spill=remove_spill)

    def clear(self, remove_spill: bool = False) -> None:
        for index, shard in enumerate(self._shards):
            with shard._lock:
                self._touched[index].clear()
            shard.clear(remove_spill=remove_spill)

    def stats(self) -> StoreStats:
        """Aggregated counters across every shard (budgets/bytes sum)."""
        merged = self._shards[0].stats()
        for shard in self._shards[1:]:
            merged = merged.merge(shard.stats())
        return merged

    def shard_stats(self) -> List[StoreStats]:
        """Per-shard counters, in shard order (balance introspection)."""
        return [shard.stats() for shard in self._shards]

    @property
    def ttl_evictions(self) -> int:
        """Entries demoted to the disk tier by TTL expiry so far."""
        return self._ttl_evictions

    # ------------------------------------------------------------------
    # TTL tier
    # ------------------------------------------------------------------

    def evict_expired(self) -> int:
        """Demote every expired entry now; returns the eviction count."""
        return sum(self._sweep_shard(i, force=True) for i in range(self.num_shards))

    def _touch(self, index: int, key: str) -> None:
        if self.ttl_seconds is None:
            return
        with self._shards[index]._lock:
            self._touched[index][key] = self._clock()

    def _sweep_shard(self, index: int, force: bool = False) -> int:
        if self.ttl_seconds is None:
            return 0
        shard = self._shards[index]
        touched = self._touched[index]
        deadline = self._clock() - self.ttl_seconds
        with shard._lock:
            expired = [
                key for key, stamp in touched.items() if stamp <= deadline
            ]
        demoted = 0
        for key in expired:
            # Re-validate and demote atomically: a put/get/warm_start that
            # re-touched the key after collection wins, keeping the fresh
            # entry resident. The timestamp is dropped only at the moment
            # of demotion, inside the same critical section — previously
            # the timestamp was removed first and demote() ran unlocked,
            # so a warm start landing in that window had its just-loaded
            # sketch demoted straight back to disk (shard._lock is an
            # RLock, so nesting demote() under it is safe).
            with shard._lock:
                stamp = touched.get(key)
                if stamp is None or stamp > deadline:
                    continue
                del touched[key]
                if shard.demote(key):
                    demoted += 1
                    self._ttl_evictions += 1
        if demoted:
            metric_inc("catalog.store.ttl_eviction", demoted)
        return demoted

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def warm_start(
        self, directory: str | Path, workers: Optional[int] = None
    ) -> List[str]:
        """Bulk-load a catalog directory, shards loading concurrently.

        The directory is scanned once; each file routes to its owning
        shard, and shards load their slices in parallel threads (the work
        is numpy I/O and validation, which release the GIL enough for real
        overlap). Unreadable files are skipped and counted exactly like
        :meth:`SketchStore.warm_start`. Returns loaded keys in sorted
        filename order, matching the flat store's contract.
        """
        source = Path(directory)
        if not source.is_dir():
            raise SketchError(f"catalog directory {source} does not exist")
        paths = sorted(source.glob("*.npz"))
        groups: Dict[int, List[Path]] = {}
        for path in paths:
            groups.setdefault(self.router.shard_for(path.stem), []).append(path)

        def load_group(index: int, group: List[Path]) -> List[str]:
            shard = self._shards[index]
            loaded: List[str] = []
            for path in group:
                sketch = load_sketch_or_none(path)
                if sketch is None:
                    shard.note_warm_skipped()
                    continue
                # put + touch must be one critical section: a TTL sweep
                # interleaving between them would see the entry resident
                # with only a stale (or missing) timestamp.
                with shard._lock:
                    shard.put(path.stem, sketch)
                    self._touch(index, path.stem)
                loaded.append(path.stem)
            return loaded

        if not groups:
            return []
        max_workers = min(
            len(groups), workers if workers is not None else self.num_shards
        )
        if max_workers <= 1:
            results = [load_group(i, group) for i, group in groups.items()]
        else:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                futures = [
                    pool.submit(load_group, index, group)
                    for index, group in groups.items()
                ]
                results = [future.result() for future in futures]
        loaded = sorted(key for group in results for key in group)
        metric_inc("catalog.store.warm_start", len(loaded))
        return loaded

    def persist(self, directory: Optional[str | Path] = None) -> int:
        """Write every resident sketch out; returns the file count."""
        target = Path(directory) if directory is not None else self.spill_dir
        if target is None:
            raise SketchError("persist() needs a directory or a spill_dir")
        return sum(shard.persist(target) for shard in self._shards)

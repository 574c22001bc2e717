"""Thread-safe, byte-budgeted, sharded LRU sketch store with disk spill.

The paper treats the MNC sketch as a computed-once artifact — possibly on a
distributed cluster (Section 3.1) — that the optimizer consults many times.
:class:`SketchStore` is the serving-side half of that contract: a bounded
in-memory cache of :class:`~repro.core.sketch.MNCSketch` objects keyed by
structural fingerprints (:mod:`repro.catalog.fingerprint`), with

- **LRU eviction under a byte budget** — entry sizes come from
  :meth:`MNCSketch.size_bytes`; the in-memory total never exceeds the
  budget, which the concurrency tests assert under thread hammering;
- **fingerprint sharding** — ``num_shards`` independently locked shards,
  each with an even slice of the budget. Fingerprints are uniform hex
  digests, so routing by key prefix (:func:`shard_index`) balances shards
  with no placement bookkeeping, and touches on different shards never
  contend. ``num_shards=1`` is the plain single-lock store;
- **optional disk spill** — evicted (and oversized) sketches persist to a
  spill directory as ``<fingerprint>.npz`` via
  :mod:`repro.core.serialize`; a later ``get`` of a spilled key reloads it
  transparently (a *disk hit*). All shards share the one flat directory:
  keys are content fingerprints, so shards never write the same file;
- **an optional TTL tier** — entries idle longer than ``ttl_seconds`` are
  demoted to the disk tier on the next ``get`` or ``put`` of their shard
  (or by :meth:`SketchStore.evict_expired`), inside that operation's
  critical section, so a long-running server's memory tracks its current
  working set while cold sketches stay one disk hit away;
- **warm start / persist** — a catalog directory of sketch files (say,
  one a distributed sketching job wrote) can be bulk-loaded, shards
  loading concurrently, and the resident set written back out.

Every hit/miss/eviction/spill updates both the store's own
:meth:`SketchStore.stats` and the observability counters
(``catalog.store.*``), so ``repro stats`` on a trace reports cache
effectiveness; the ``catalog.store.{bytes_used,entries,budget_bytes}``
gauges describe the whole store.
"""

from __future__ import annotations

import threading
import time
import zipfile
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.serialize import load_sketch, save_sketch
from repro.core.sketch import MNCSketch
from repro.errors import SketchError
from repro.observability.metrics import metric_inc, metric_set

#: Default in-memory budget: generous for O(m + n) sketches, small enough
#: that pathological workloads spill instead of exhausting the heap.
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024

#: Hex characters of a key that pick its shard.
_PREFIX_LEN = 8

#: :class:`StoreStats` fields that are plain sums of the shards' fields.
_SUMMED_STATS = ("hits", "misses", "disk_hits", "puts", "evictions", "spills",
                 "bytes_used", "budget_bytes", "warm_skipped")


def load_sketch_or_none(path: Path) -> Optional[MNCSketch]:
    """Load one catalog file, returning ``None`` for anything unreadable.

    "Unreadable" covers the failure modes a live, shared catalog directory
    actually produces: a file deleted between listing and open, a
    partially-written or truncated npz (a writer mid-``save_sketch``, a
    crashed spill), a zip that is not an npz at all, and payloads whose
    sketch contents fail validation or carry a future format version.
    """
    try:
        return load_sketch(path)
    except (SketchError, OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile, zlib.error):
        return None


def shard_index(key: str, num_shards: int) -> int:
    """The shard owning *key*: its first 8 hex characters modulo
    *num_shards*. Non-hex keys (legacy or test keys) fall back to a stable
    byte sum (``hash()`` is salted per process), so every key always maps
    to the same shard."""
    prefix = key[:_PREFIX_LEN]
    try:
        value = int(prefix, 16)
    except ValueError:
        value = sum((i + 1) * b for i, b in enumerate(prefix.encode()))
    return value % num_shards


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time cache-effectiveness counters for one store."""

    hits: int
    misses: int
    disk_hits: int
    puts: int
    evictions: int
    spills: int
    entries: int
    bytes_used: int
    budget_bytes: int
    warm_skipped: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get`` calls served from memory or disk."""
        requests = self.requests
        if requests == 0:
            return 0.0
        return (self.hits + self.disk_hits) / requests

    def as_dict(self) -> Dict[str, float]:
        data = dict(asdict(self))
        data["hit_rate"] = self.hit_rate
        return data


@dataclass(eq=False)
class _Shard:
    """One shard's state; every field is guarded by ``lock``."""

    budget_bytes: int
    lock: threading.RLock = field(default_factory=threading.RLock)
    entries: "OrderedDict[str, MNCSketch]" = field(default_factory=OrderedDict)
    sizes: Dict[str, int] = field(default_factory=dict)
    #: Last-touch times of resident keys (TTL tier only).
    touched: Dict[str, float] = field(default_factory=dict)
    bytes_used: int = 0
    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    puts: int = 0
    evictions: int = 0
    spills: int = 0
    warm_skipped: int = 0
    ttl_evictions: int = 0


class SketchStore:
    """Byte-budgeted LRU cache of MNC sketches keyed by fingerprint.

    Args:
        budget_bytes: total in-memory ceiling, split evenly across shards;
            the resident total never exceeds it (a sketch larger than its
            shard's slice is never admitted to memory — it spills straight
            to disk when a spill directory is configured, and is otherwise
            dropped).
        spill_dir: optional directory for ``<fingerprint>.npz`` spill files,
            shared by every shard; created on first use. ``None`` disables
            persistence.
        num_shards: independently locked partitions of the keyspace.
        ttl_seconds: idle lifetime of a resident entry; ``None`` disables
            the TTL tier. Expired entries demote to the disk tier on the
            next ``get``/``put`` of their shard, or via
            :meth:`evict_expired`.
        clock: monotonic time source for the TTL tier (injectable for
            tests).
    """

    def __init__(
        self,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        spill_dir: Optional[str | Path] = None,
        num_shards: int = 1,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if budget_bytes <= 0:
            raise SketchError(f"budget_bytes must be positive, got {budget_bytes}")
        if num_shards < 1:
            raise SketchError(f"num_shards must be positive, got {num_shards}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise SketchError(f"ttl_seconds must be positive, got {ttl_seconds}")
        self.budget_bytes = int(budget_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.num_shards = int(num_shards)
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        per_shard = max(1, self.budget_bytes // self.num_shards)
        self._shards = [
            _Shard(budget_bytes=per_shard) for _ in range(self.num_shards)
        ]
        # Serializes gauge publication only; taken after a shard lock,
        # never before one.
        self._gauge_lock = threading.Lock()

    def _shard(self, key: str) -> _Shard:
        return self._shards[shard_index(key, self.num_shards)]

    # ------------------------------------------------------------------
    # Core cache protocol
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[MNCSketch]:
        """The sketch stored under *key*, or ``None``.

        Memory hits refresh LRU recency; misses fall back to the spill
        directory (reloading promotes the sketch back into memory).
        """
        shard = self._shard(key)
        with shard.lock:
            self._expire(shard)
            sketch = shard.entries.get(key)
            if sketch is not None:
                shard.entries.move_to_end(key)
                if self.ttl_seconds is not None:
                    shard.touched[key] = self._clock()
                shard.hits += 1
                metric_inc("catalog.store.hit")
                return sketch
            spill_path = self._spill_path(key)
            if spill_path is not None and spill_path.exists():
                sketch = load_sketch(spill_path)
                self._admit(shard, key, sketch)
                shard.disk_hits += 1
                metric_inc("catalog.store.disk_hit")
                return sketch
            shard.misses += 1
            metric_inc("catalog.store.miss")
            return None

    def put(self, key: str, sketch: MNCSketch) -> None:
        """Insert (or refresh) *sketch* under *key*, evicting its shard's
        LRU entries as needed to stay within the shard's budget."""
        shard = self._shard(key)
        with shard.lock:
            self._expire(shard)
            self._admit(shard, key, sketch)
            shard.puts += 1
            metric_inc("catalog.store.put")

    def __contains__(self, key: str) -> bool:
        shard = self._shard(key)
        with shard.lock:
            if key in shard.entries:
                return True
        spill_path = self._spill_path(key)
        return spill_path is not None and spill_path.exists()

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)

    def keys(self) -> List[str]:
        """Resident fingerprints, shard by shard, each shard least- to
        most-recently used."""
        keys: List[str] = []
        for shard in self._shards:
            with shard.lock:
                keys.extend(shard.entries)
        return keys

    @property
    def bytes_used(self) -> int:
        """Current in-memory footprint (always ``<= budget_bytes``)."""
        return sum(shard.bytes_used for shard in self._shards)

    @property
    def ttl_evictions(self) -> int:
        """Entries demoted to the disk tier by TTL expiry so far."""
        return sum(shard.ttl_evictions for shard in self._shards)

    def discard(self, key: str) -> bool:
        """Forget *key* entirely (memory and its spill file).

        Returns ``True`` when anything was removed.
        """
        shard = self._shard(key)
        removed = False
        with shard.lock:
            size = shard.sizes.pop(key, None)
            if size is not None:
                del shard.entries[key]
                shard.touched.pop(key, None)
                shard.bytes_used -= size
                removed = True
                self._publish_gauges()
        spill_path = self._spill_path(key)
        if spill_path is not None and spill_path.exists():
            spill_path.unlink()
            removed = True
        return removed

    def clear(self) -> None:
        """Drop all resident entries; spill files stay on disk."""
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()
                shard.sizes.clear()
                shard.touched.clear()
                shard.bytes_used = 0
        self._publish_gauges()

    def stats(self) -> StoreStats:
        """Snapshot of the cache-effectiveness counters, summed over shards
        (``budget_bytes`` is the sum of the shards' slices)."""
        totals = dict.fromkeys(_SUMMED_STATS, 0)
        entries = 0
        for shard in self._shards:
            with shard.lock:
                for name in _SUMMED_STATS:
                    totals[name] += getattr(shard, name)
                entries += len(shard.entries)
        return StoreStats(entries=entries, **totals)

    # ------------------------------------------------------------------
    # TTL tier
    # ------------------------------------------------------------------

    def evict_expired(self) -> int:
        """Demote every expired entry now; returns the eviction count."""
        demoted = 0
        for shard in self._shards:
            with shard.lock:
                demoted += self._expire(shard)
        return demoted

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def warm_start(self, directory: str | Path) -> List[str]:
        """Bulk-load every ``*.npz`` sketch under *directory*.

        The catalog directory layout is ``<key>.npz`` — exactly what
        :meth:`persist` and disk spill write — so keys round-trip through
        the filename stem. The directory is scanned once and each file
        routed to its shard; shards load their files in sorted filename
        order (so e.g. shard sketches keep their partition order), one
        thread per shard when there is more than one. Sketch contents are
        validated on load. Returns the loaded keys in sorted filename
        order.

        The scan is tolerant of a live catalog: files that vanish mid-scan
        (a concurrent ``discard``), corrupt files, and future-versioned
        payloads are skipped and counted (``catalog.store.warm_skipped``
        and the ``warm_skipped`` stats field) instead of aborting the whole
        warm start, so several servers can warm from — and spill into —
        one directory at once.
        """
        source = Path(directory)
        if not source.is_dir():
            raise SketchError(f"catalog directory {source} does not exist")
        paths = sorted(source.glob("*.npz"))
        groups: Dict[int, List[Path]] = {}
        for path in paths:
            index = shard_index(path.stem, self.num_shards)
            groups.setdefault(index, []).append(path)

        def load_group(group: List[Path]) -> List[str]:
            loaded: List[str] = []
            for path in group:
                sketch = load_sketch_or_none(path)
                if sketch is None:
                    shard = self._shard(path.stem)
                    with shard.lock:
                        shard.warm_skipped += 1
                    metric_inc("catalog.store.warm_skipped")
                    continue
                self.put(path.stem, sketch)
                loaded.append(path.stem)
            return loaded

        if len(groups) > 1:
            with ThreadPoolExecutor(max_workers=len(groups)) as pool:
                results = list(pool.map(load_group, groups.values()))
        else:
            results = [load_group(group) for group in groups.values()]
        loaded = {key for group in results for key in group}
        metric_inc("catalog.store.warm_start", len(loaded))
        return [path.stem for path in paths if path.stem in loaded]

    def persist(self, directory: Optional[str | Path] = None) -> int:
        """Write every resident sketch to *directory* (default: the spill
        directory) as ``<fingerprint>.npz``; returns the file count."""
        target = Path(directory) if directory is not None else self.spill_dir
        if target is None:
            raise SketchError("persist() needs a directory or a spill_dir")
        resident = []
        for shard in self._shards:
            with shard.lock:
                resident.extend(shard.entries.items())
        for key, sketch in resident:
            save_sketch(target / f"{key}.npz", sketch)
        return len(resident)

    # ------------------------------------------------------------------
    # Internals (call with the shard's lock held)
    # ------------------------------------------------------------------

    def _spill_path(self, key: str) -> Optional[Path]:
        if self.spill_dir is None:
            return None
        return self.spill_dir / f"{key}.npz"

    def _publish_gauges(self) -> None:
        # Whole-store totals, read without the other shards' locks; the
        # gauge lock makes the last publisher's sum the latest one.
        with self._gauge_lock:
            metric_set("catalog.store.bytes_used", self.bytes_used)
            metric_set("catalog.store.entries", len(self))
            metric_set(
                "catalog.store.budget_bytes",
                sum(shard.budget_bytes for shard in self._shards),
            )

    def _expire(self, shard: _Shard) -> int:
        """Demote *shard*'s entries idle longer than the TTL."""
        if self.ttl_seconds is None:
            return 0
        deadline = self._clock() - self.ttl_seconds
        expired = [
            key for key, stamp in shard.touched.items() if stamp <= deadline
        ]
        for key in expired:
            self._evict(shard, key)
        if expired:
            shard.ttl_evictions += len(expired)
            metric_inc("catalog.store.ttl_eviction", len(expired))
            self._publish_gauges()
        return len(expired)

    def _admit(self, shard: _Shard, key: str, sketch: MNCSketch) -> None:
        size = sketch.size_bytes()
        previous = shard.sizes.pop(key, None)
        if previous is not None:
            del shard.entries[key]
            shard.touched.pop(key, None)
            shard.bytes_used -= previous
        if size > shard.budget_bytes:
            # Never admit something the budget cannot hold; spill directly.
            self._spill(shard, key, sketch)
            self._publish_gauges()
            return
        while shard.bytes_used + size > shard.budget_bytes and shard.entries:
            self._evict(shard, next(iter(shard.entries)))
        shard.entries[key] = sketch
        shard.sizes[key] = size
        shard.bytes_used += size
        if self.ttl_seconds is not None:
            shard.touched[key] = self._clock()
        self._publish_gauges()

    def _evict(self, shard: _Shard, key: str) -> None:
        """Move resident *key* to the disk tier (dropped without a spill
        directory)."""
        sketch = shard.entries.pop(key)
        shard.bytes_used -= shard.sizes.pop(key)
        shard.touched.pop(key, None)
        shard.evictions += 1
        metric_inc("catalog.store.eviction")
        self._spill(shard, key, sketch)

    def _spill(self, shard: _Shard, key: str, sketch: MNCSketch) -> None:
        path = self._spill_path(key)
        if path is None:
            return
        if not path.exists():
            save_sketch(path, sketch)
        shard.spills += 1
        metric_inc("catalog.store.spill")

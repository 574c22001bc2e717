"""Memoized estimation results keyed on structural fingerprints.

:class:`EstimateMemo` is the catalog's second table: while the
:class:`~repro.catalog.store.SketchStore` holds *synopses*, the memo holds
*results* — per-node non-zero estimates, root estimates, ground-truth
counts — keyed on ``(fingerprint, estimator, tag)``. Because fingerprints
are structural (:mod:`repro.catalog.fingerprint`), a memoized result
survives rebuilding the expression from scratch: the SparsEst runner uses
exactly this to keep ground-truth nnz across per-seed DAG reconstructions.

The memo is thread-safe and LRU-bounded twice: by entry count and by a
byte budget (:data:`DEFAULT_BUDGET_BYTES`). Every entry is charged by
:func:`entry_charge`, the rule the sketch store charges by too, so a memo
full of propagated MNC synopses stays within its budget; a value larger
than the whole budget is returned to its caller but never admitted.
Charges are fixed at ``put`` time, so a value must not outgrow its charge
once memoized: an MNC sketch is charged the float64 views it may cache,
and the service memoizes ``counts_only()`` twins, which cache none and are
charged their counts alone. The memo
also supports explicit invalidation by fingerprint — the hook for
workloads where a registered matrix is replaced under the same logical
name, or patched by a streaming delta — answered from an index, not a
scan of the entries.

Concurrency contract (the serving tier leans on all three):

- ``get``/``put`` are individually atomic, so a reader never observes a
  torn entry and concurrent full-value writes are last-writer-wins rather
  than lost-update-prone read-modify-write;
- :meth:`EstimateMemo.memoize` is **single-writer-per-key**: when several
  threads miss the same key simultaneously, exactly one runs ``compute``
  while the rest block on an in-flight marker and then read the stored
  value — the cold path of a popular key costs one computation, not one
  per concurrent request;
- a ``compute`` that raises releases the in-flight marker, so one waiter
  is promoted to writer instead of every waiter hanging or failing.

Hits, misses and evictions are mirrored onto the observability counters
(``catalog.memo.hit`` / ``catalog.memo.miss`` / ``catalog.memo.evictions``),
and the ``catalog.memo.{entries,bytes_used,budget_bytes}`` gauges track the
resident set.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.observability.metrics import metric_inc, metric_set

#: Default entry bound. Root estimates are scalars or small route payloads;
#: the byte budget, not this bound, limits a memo of propagated synopses.
DEFAULT_MAX_ENTRIES = 65536

#: Default byte budget. The service memoizes every propagated synopsis, and
#: an MNC synopsis of an m x n intermediate holds O(m + n) int32 counts
#: (~0.16 MB at 20000 x 20000), so this holds about a thousand of them: as
#: many as the 320 MiB that int64 counts needed, the smallest budget that
#: kept e2ebench ``serve_cold`` latency within ~10% of an unbounded memo
#: (docs/PERFORMANCE.md, "The memo's byte budget").
DEFAULT_BUDGET_BYTES = 160 * 1024 * 1024

#: Fixed charge per entry: its key, value object and index slots.
ENTRY_OVERHEAD_BYTES = 512

_MISSING = object()

MemoKey = Tuple[str, str, str]


def entry_charge(value: Any) -> int:
    """Bytes an entry holding *value* is charged, in the memo and in the
    sketch store alike.

    :data:`ENTRY_OVERHEAD_BYTES` plus the value's ``footprint_bytes()``
    when it has one (an MNC sketch or synopsis: its counts and, unless it
    is a ``counts_only()`` twin, the float64 views it caches), else its
    ``size_bytes()`` (other synopses), else nothing more (scalars).
    """
    for method in ("footprint_bytes", "size_bytes"):
        measure = getattr(value, method, None)
        if measure is not None:
            return ENTRY_OVERHEAD_BYTES + int(measure())
    return ENTRY_OVERHEAD_BYTES


class _Pending(threading.Event):
    """A key's in-flight computation; its writer sets ``value`` before the
    event, so waiters can take a value the memo did not keep."""

    value: Any = _MISSING


class EstimateMemo:
    """Thread-safe LRU memo of estimation results.

    Keys are ``(fingerprint, estimator, tag)`` triples: the structural
    fingerprint of the node or DAG, the estimator identity (its
    :attr:`~repro.estimators.base.SparsityEstimator.name`, or ``"exact"``
    for ground truth), and a tag naming what was memoized (``"nnz"``,
    ``"synopsis"``, ...). Least recently used entries are evicted while
    the memo holds more than *max_entries* entries or more than
    *budget_bytes* of charges (:func:`entry_charge`).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
    ):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.max_entries = int(max_entries)
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[MemoKey, Any]" = OrderedDict()
        self._charges: Dict[MemoKey, int] = {}
        self._bytes_used = 0
        #: Keys whose value is being computed right now (memoize's
        #: single-writer-per-key protocol); waiters block on the event.
        self._inflight: Dict[MemoKey, _Pending] = {}
        #: Invalidation index: fingerprint -> keys of the entries keyed on
        #: it or declaring it in ``depends_on``, plus each key's declared
        #: dependencies so eviction unlinks it in O(deps).
        self._dependents: Dict[str, Set[MemoKey]] = {}
        self._key_deps: Dict[MemoKey, Tuple[str, ...]] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._compute_waits = 0
        self._evictions = 0

    def get(
        self, fingerprint: str, estimator: str, tag: str, default: Any = None
    ) -> Any:
        """The memoized value, or *default*; hits refresh LRU recency."""
        key = (fingerprint, estimator, tag)
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                metric_inc("catalog.memo.miss")
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            metric_inc("catalog.memo.hit")
            return value

    def _remove(self, key: MemoKey) -> None:
        """Drop resident *key*, its charge and its dependency edges (caller
        holds the lock)."""
        del self._entries[key]
        self._bytes_used -= self._charges.pop(key)
        self._unlink_deps(key)

    def _unlink_deps(self, key: MemoKey) -> None:
        """Drop *key* from the invalidation index (caller holds the lock)."""
        for dep in (key[0], *self._key_deps.pop(key, ())):
            dependents = self._dependents.get(dep)
            if dependents is not None:
                dependents.discard(key)
                if not dependents:
                    del self._dependents[dep]

    def put(
        self,
        fingerprint: str,
        estimator: str,
        tag: str,
        value: Any,
        *,
        depends_on: Optional[Iterable[str]] = None,
    ) -> None:
        """Memoize *value*, evicting LRU entries beyond either bound.

        A re-put replaces the key's value, charge and dependencies. A value
        whose charge exceeds the whole budget is not admitted (and the
        key's previous value is dropped): the caller keeps it, the memo
        does not.

        ``depends_on`` lists the *leaf* fingerprints the value was derived
        from; invalidating any of them (e.g. because a streaming delta
        mutated that matrix) evicts this entry too, while entries over
        untouched leaves survive. Omitting it keeps the pre-streaming
        behavior: the entry is only dropped by its own fingerprint.
        """
        key = (fingerprint, estimator, tag)
        charge = entry_charge(value)
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._remove(key)
            if charge <= self.budget_bytes:
                self._entries[key] = value
                self._charges[key] = charge
                self._bytes_used += charge
                deps = tuple(dict.fromkeys(depends_on)) if depends_on else ()
                if deps:
                    self._key_deps[key] = deps
                for dep in (fingerprint, *deps):
                    self._dependents.setdefault(dep, set()).add(key)
                while (
                    len(self._entries) > self.max_entries
                    or self._bytes_used > self.budget_bytes
                ):
                    self._remove(next(iter(self._entries)))
                    evicted += 1
                self._evictions += evicted
            self._publish_gauges()
        if evicted:
            metric_inc("catalog.memo.evictions", evicted)

    def memoize(
        self,
        fingerprint: str,
        estimator: str,
        tag: str,
        compute: Callable[[], Any],
        *,
        depends_on: Optional[Iterable[str]] = None,
    ) -> Any:
        """Return the memoized value, computing and storing it on a miss.

        Atomic get-or-compute: when several threads miss the same key at
        once, exactly one runs ``compute`` (outside the lock — computations
        can be arbitrarily slow) while the others wait for it and then read
        the stored value. If the computing thread raises, its waiters are
        woken and one of them takes over the computation; the exception
        propagates to the original caller. A computed value the memo does
        not keep (larger than the budget, or evicted before a waiter
        reads it) is handed to the waiters instead of recomputed.
        """
        key = (fingerprint, estimator, tag)
        waited: Optional[_Pending] = None
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    metric_inc("catalog.memo.hit")
                    return value
                if waited is not None and waited.value is not _MISSING:
                    return waited.value
                pending = self._inflight.get(key)
                if pending is None:
                    pending = self._inflight[key] = _Pending()
                    owner = True
                    self._misses += 1
                    metric_inc("catalog.memo.miss")
                else:
                    owner = False
                    self._compute_waits += 1
                    metric_inc("catalog.memo.compute_wait")
            if owner:
                try:
                    value = compute()
                except BaseException:
                    # Promote a waiter to writer rather than caching the
                    # failure or leaving everyone blocked forever.
                    with self._lock:
                        self._inflight.pop(key, None)
                    pending.set()
                    raise
                self.put(
                    fingerprint, estimator, tag, value,
                    depends_on=depends_on,
                )
                pending.value = value
                with self._lock:
                    self._inflight.pop(key, None)
                pending.set()
                return value
            pending.wait()
            waited = pending
            # Re-check from the top: the usual case finds the stored value,
            # else the writer's value; if the writer failed this thread
            # competes to become the new writer.

    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry keyed on *fingerprint* or declaring it in
        ``depends_on``; returns the number of entries removed.

        Mutating one leaf thus evicts exactly the results derived from
        that leaf, leaving memoized work over untouched subexpressions in
        place (partial invalidation). One index lookup finds the entries,
        whatever the memo's size.
        """
        with self._lock:
            doomed = list(self._dependents.get(fingerprint, ()))
            for key in doomed:
                self._remove(key)
            return self._count_invalidations(len(doomed))

    def clear(self) -> None:
        """Drop every memoized result (counters are kept)."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            self._charges.clear()
            self._bytes_used = 0
            self._dependents.clear()
            self._key_deps.clear()
            self._count_invalidations(removed)

    def _count_invalidations(self, removed: int) -> int:
        """Count *removed* invalidated entries (caller holds the lock)."""
        self._invalidations += removed
        self._publish_gauges()
        if removed:
            metric_inc("catalog.memo.invalidation", removed)
        return removed

    def _publish_gauges(self) -> None:
        """Mirror the resident set onto the gauges (caller holds the lock)."""
        metric_set("catalog.memo.entries", len(self._entries))
        metric_set("catalog.memo.bytes_used", self._bytes_used)
        metric_set("catalog.memo.budget_bytes", self.budget_bytes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: MemoKey) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters for reporting."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
                "compute_waits": self._compute_waits,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "bytes_used": self._bytes_used,
                "budget_bytes": self.budget_bytes,
                "dependency_tracked": len(self._key_deps),
            }

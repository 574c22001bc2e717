"""Memoized estimation results keyed on structural fingerprints.

:class:`EstimateMemo` is the catalog's second table: while the
:class:`~repro.catalog.store.SketchStore` holds *synopses*, the memo holds
*results* — per-node non-zero estimates, root estimates, ground-truth
counts — keyed on ``(fingerprint, estimator, tag)``. Because fingerprints
are structural (:mod:`repro.catalog.fingerprint`), a memoized result
survives rebuilding the expression from scratch: the SparsEst runner uses
exactly this to keep ground-truth nnz across per-seed DAG reconstructions.

The memo is thread-safe, LRU-bounded by entry count only (no byte budget,
although propagated synopses are large — see :data:`DEFAULT_MAX_ENTRIES`),
and supports explicit invalidation by fingerprint and/or estimator — the
hook for workloads where a registered matrix is replaced under the same
logical name.

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

Hits and misses are mirrored onto the observability counters
(``catalog.memo.hit`` / ``catalog.memo.miss``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.observability.metrics import metric_inc, metric_set

#: Default entry bound. Root estimates are scalars or small route payloads,
#: but the service also memoizes every propagated synopsis, and an MNC
#: synopsis of an m x n intermediate holds O(m + n) counts (~0.3-0.6 MB at
#: 20000 x 20000), so a full memo can reach tens of GB.
DEFAULT_MAX_ENTRIES = 65536

_MISSING = object()

MemoKey = Tuple[str, str, str]


class EstimateMemo:
    """Thread-safe LRU memo of estimation results.

    Keys are ``(fingerprint, estimator, tag)`` triples: the structural
    fingerprint of the node or DAG, the estimator identity (its
    :attr:`~repro.estimators.base.SparsityEstimator.name`, or ``"exact"``
    for ground truth), and a tag naming what was memoized (``"nnz"``,
    ``"synopsis"``, ...).
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[MemoKey, Any]" = OrderedDict()
        #: Keys whose value is being computed right now (memoize's
        #: single-writer-per-key protocol); waiters block on the event.
        self._inflight: Dict[MemoKey, threading.Event] = {}
        #: Leaf-dependency index for partial invalidation (streaming):
        #: ``depends_on`` fingerprints -> keys of entries derived from
        #: them, plus the per-key inverse so eviction stays O(deps).
        self._dependents: Dict[str, Set[MemoKey]] = {}
        self._key_deps: Dict[MemoKey, Tuple[str, ...]] = {}
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._compute_waits = 0

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

    def _unlink_deps(self, key: MemoKey) -> None:
        """Drop *key* from the dependency index (caller holds the lock)."""
        for dep in self._key_deps.pop(key, ()):
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
        """Memoize *value*, evicting the LRU entry beyond the bound.

        ``depends_on`` lists the *leaf* fingerprints the value was derived
        from; invalidating any of them (e.g. because a streaming delta
        mutated that matrix) evicts this entry too, while entries over
        untouched leaves survive. Omitting it keeps the pre-streaming
        behavior: the entry is only dropped by its own fingerprint.
        """
        key = (fingerprint, estimator, tag)
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._unlink_deps(key)
            if depends_on:
                deps = tuple(dict.fromkeys(depends_on))
                self._key_deps[key] = deps
                for dep in deps:
                    self._dependents.setdefault(dep, set()).add(key)
            while len(self._entries) > self.max_entries:
                evicted, _ = self._entries.popitem(last=False)
                self._unlink_deps(evicted)
            metric_set("catalog.memo.entries", len(self._entries))

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
        propagates to the original caller.
        """
        key = (fingerprint, estimator, tag)
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    metric_inc("catalog.memo.hit")
                    return value
                pending = self._inflight.get(key)
                if pending is None:
                    pending = self._inflight[key] = threading.Event()
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
                with self._lock:
                    self._inflight.pop(key, None)
                pending.set()
                return value
            pending.wait()
            # Re-check from the top: the usual case finds the stored value;
            # if the writer failed (or the entry was already evicted) this
            # thread competes to become the new writer.

    def invalidate(
        self,
        fingerprint: Optional[str] = None,
        estimator: Optional[str] = None,
    ) -> int:
        """Drop entries matching the given fingerprint and/or estimator.

        A fingerprint matches an entry keyed on it *and* every entry that
        declared it in ``depends_on`` — so mutating one leaf evicts exactly
        the results derived from that leaf, leaving memoized work over
        untouched subexpressions in place (partial invalidation). With both
        arguments ``None`` this clears everything. Returns the number of
        entries removed.
        """
        with self._lock:
            if fingerprint is None and estimator is None:
                removed = len(self._entries)
                self._entries.clear()
                self._dependents.clear()
                self._key_deps.clear()
            else:
                dependents = (
                    self._dependents.get(fingerprint, set())
                    if fingerprint is not None
                    else set()
                )
                doomed = [
                    key
                    for key in self._entries
                    if (
                        fingerprint is None
                        or key[0] == fingerprint
                        or key in dependents
                    )
                    and (estimator is None or key[1] == estimator)
                ]
                for key in doomed:
                    del self._entries[key]
                    self._unlink_deps(key)
                removed = len(doomed)
            self._invalidations += removed
            metric_set("catalog.memo.entries", len(self._entries))
        if removed:
            metric_inc("catalog.memo.invalidation", removed)
        return removed

    def clear(self) -> None:
        """Drop every memoized result (counters are kept)."""
        self.invalidate()

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
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "dependency_tracked": len(self._key_deps),
            }

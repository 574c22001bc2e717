"""Learned routing policy: per-(workload, op, estimator) error statistics.

The :class:`RoutingPolicy` closes the feedback loop the residual ledger
(:mod:`repro.observability.metrics`, PR 6) opened: every
:class:`~repro.observability.metrics.ResidualRecord` — an estimate paired
with ground truth — becomes an observation of how wrong a given estimator
tends to be on a given workload/op, and the router consults those bands
instead of its static priors once data exists.

Like :class:`~repro.observability.metrics.MetricsSnapshot`, a policy is
snapshot-serializable and mergeable, so parallel workers can each route
against the same frozen snapshot (determinism) and their observations can
be folded back together afterwards. ``save``/``load`` persist the policy
as ``routing_policy.json`` alongside the sketch catalog, so routing keeps
improving across sessions.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.observability.metrics import METRICS, ResidualRecord

#: File name used when persisting next to a catalog spill directory.
POLICY_FILENAME = "routing_policy.json"

_SNAPSHOT_VERSION = 1

#: Pseudo-observations anchoring the smoothed band to the prior, so one
#: lucky residual cannot instantly declare a cheap estimator trustworthy.
_PSEUDO_COUNT = 4.0

Key = Tuple[str, str, str]  # (workload, op, estimator label)


@dataclass
class ErrorStats:
    """Accumulated multiplicative-error observations for one key.

    Errors are the ledger's symmetric relative errors
    (``max(est, truth) / min(est, truth)``, always >= 1); the geometric
    mean (via ``sum_log_error``) is the natural average for a
    multiplicative quantity.
    """

    count: int = 0
    sum_log_error: float = 0.0
    max_error: float = 1.0
    sum_seconds: float = 0.0

    def observe(self, relative_error: float, seconds: float = 0.0) -> None:
        self.count += 1
        self.sum_log_error += math.log(max(relative_error, 1.0))
        self.max_error = max(self.max_error, relative_error)
        self.sum_seconds += max(seconds, 0.0)

    def merge(self, other: "ErrorStats") -> None:
        self.count += other.count
        self.sum_log_error += other.sum_log_error
        self.max_error = max(self.max_error, other.max_error)
        self.sum_seconds += other.sum_seconds

    @property
    def geometric_mean_error(self) -> float:
        if self.count == 0:
            return 1.0
        return math.exp(self.sum_log_error / self.count)

    def smoothed_error(self, prior: float) -> float:
        """Geometric mean shrunk toward *prior* by pseudo-observations."""
        total = _PSEUDO_COUNT + self.count
        log_band = (math.log(max(prior, 1.0)) * _PSEUDO_COUNT + self.sum_log_error)
        return math.exp(log_band / total)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum_log_error": self.sum_log_error,
            "max_error": self.max_error,
            "sum_seconds": self.sum_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "ErrorStats":
        return cls(
            count=int(payload.get("count", 0)),
            sum_log_error=float(payload.get("sum_log_error", 0.0)),
            max_error=float(payload.get("max_error", 1.0)),
            sum_seconds=float(payload.get("sum_seconds", 0.0)),
        )


@dataclass
class RoutingPolicy:
    """Mergeable, serializable error statistics keyed by
    ``(workload, op, estimator label)``.

    Observations are written under the specific key *and* the wildcard
    rollups ``("*", op, estimator)`` and ``("*", "*", estimator)``;
    :meth:`predicted_error` reads the most specific key with data.
    """

    _stats: Dict[Key, ErrorStats] = field(default_factory=dict)
    _seen: int = 0  # residuals_seen high-water mark for sync_from_registry
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def observe(
        self,
        estimator: str,
        *,
        workload: str = "*",
        op: str = "*",
        relative_error: float,
        seconds: float = 0.0,
    ) -> None:
        """Record one estimate-vs-truth observation for *estimator*."""
        if not math.isfinite(relative_error) or relative_error < 1.0:
            return
        keys = {(workload, op, estimator), ("*", op, estimator), ("*", "*", estimator)}
        with self._lock:
            for key in keys:
                stats = self._stats.get(key)
                if stats is None:
                    stats = self._stats[key] = ErrorStats()
                stats.observe(relative_error, seconds)

    def ingest(self, records: Iterable[ResidualRecord]) -> int:
        """Fold residual-ledger records into the policy; returns how many
        were usable (finite error >= 1)."""
        used = 0
        for record in records:
            error = record.relative_error
            if not math.isfinite(error) or error < 1.0:
                continue
            self.observe(
                record.estimator,
                workload=record.workload or "*",
                op=record.op or "*",
                relative_error=error,
                seconds=record.seconds,
            )
            used += 1
        return used

    def sync_from_registry(self, registry=METRICS) -> int:
        """Ingest residuals the metrics registry accumulated since the last
        sync. Never called mid-request — routing stays deterministic for a
        given policy state."""
        snapshot = registry.snapshot()
        if snapshot.residuals_seen <= self._seen:
            return 0
        records = snapshot.residuals
        # The ledger is a bounded deque: records[0] is global index
        # residuals_seen - len(records), not 0.
        start = snapshot.residuals_seen - len(records)
        fresh = records[max(self._seen - start, 0):]
        used = self.ingest(fresh)
        self._seen = snapshot.residuals_seen
        return used

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def predicted_error(
        self,
        estimator: str,
        *,
        workload: str = "*",
        op: str = "*",
        prior: Optional[float] = None,
    ) -> Optional[float]:
        """Smoothed multiplicative error band for *estimator*.

        Falls back from ``(workload, op)`` to ``("*", op)`` to
        ``("*", "*")``; with no observations anywhere, returns *prior*
        (which may be ``None``, meaning "no information").
        """
        with self._lock:
            for key in (
                (workload, op, estimator),
                ("*", op, estimator),
                ("*", "*", estimator),
            ):
                stats = self._stats.get(key)
                if stats is not None and stats.count > 0:
                    return stats.smoothed_error(prior if prior is not None else 1.0)
        return prior

    def observation_count(self, estimator: str) -> int:
        with self._lock:
            stats = self._stats.get(("*", "*", estimator))
            return stats.count if stats is not None else 0

    # ------------------------------------------------------------------
    # Snapshot / merge / persistence
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe frozen copy (sorted keys — byte-stable for a given
        state, so workers routing against the same snapshot agree)."""
        with self._lock:
            entries = {
                "|".join(key): stats.to_dict()
                for key, stats in sorted(self._stats.items())
            }
        return {"version": _SNAPSHOT_VERSION, "stats": entries}

    @classmethod
    def from_snapshot(cls, payload: Dict[str, object]) -> "RoutingPolicy":
        version = int(payload.get("version", _SNAPSHOT_VERSION))
        if version > _SNAPSHOT_VERSION:
            raise ReproError(
                f"routing policy snapshot version {version} is newer than "
                f"supported version {_SNAPSHOT_VERSION}"
            )
        policy = cls()
        for joined, stats in dict(payload.get("stats", {})).items():
            parts = joined.split("|")
            if len(parts) != 3:
                continue
            policy._stats[tuple(parts)] = ErrorStats.from_dict(stats)
        return policy

    def merge(self, other: "RoutingPolicy") -> None:
        """Fold another policy's observations into this one (worker join)."""
        with other._lock:
            items = [(key, ErrorStats.from_dict(stats.to_dict()))
                     for key, stats in other._stats.items()]
        with self._lock:
            for key, stats in items:
                mine = self._stats.get(key)
                if mine is None:
                    self._stats[key] = stats
                else:
                    mine.merge(stats)

    def save(self, directory: str) -> str:
        """Persist as ``routing_policy.json`` under *directory*."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, POLICY_FILENAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, sort_keys=True, indent=1)
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory: Optional[str]) -> Optional["RoutingPolicy"]:
        """Load a persisted policy, or ``None`` when absent/unset."""
        if not directory:
            return None
        path = os.path.join(directory, POLICY_FILENAME)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_snapshot(json.load(handle))

    def describe(self) -> Dict[str, object]:
        """Compact summary for ``repro stats`` / ``/stats``."""
        with self._lock:
            per_estimator: List[Dict[str, object]] = []
            for (workload, op, estimator), stats in sorted(self._stats.items()):
                if workload != "*" or op != "*":
                    continue
                per_estimator.append(
                    {
                        "estimator": estimator,
                        "observations": stats.count,
                        "geometric_mean_error": round(stats.geometric_mean_error, 4),
                        "max_error": round(stats.max_error, 4),
                    }
                )
            keys = len(self._stats)
        return {"keys": keys, "estimators": per_estimator}

"""Process-pool execution engine for independent estimation work.

The engine fans *tasks* — small, picklable, self-describing work items —
out to a ``ProcessPoolExecutor`` and collects results **in task order**, so
a parallel run is a pure reordering of the same computations a serial run
performs. Three properties make that safe to rely on:

- **Serial fallback.** ``workers <= 1`` (the default: ``REPRO_WORKERS`` or
  1) never touches a pool: tasks run inline, in order, against the live
  collector, so determinism and trace output are exactly what they were
  before this module existed.
- **Crash isolation.** An exception inside a task is caught *inside the
  worker* and returned as a :class:`TaskFailure`; a hard worker death
  (``BrokenProcessPool``) converts the affected tasks to failures instead
  of hanging or killing the run. The pool never takes the parent down.
- **Trace merging.** When the parent has an enabled collector, each worker
  records its spans and outcomes into a private
  :class:`~repro.observability.collector.RecordingCollector`, snapshots it
  as a picklable :class:`~repro.observability.collector.TracePayload`, and
  ships it back with the result. The parent merges payloads in task order,
  so ``repro stats`` and ``--trace`` see one coherent trace regardless of
  worker count (worker span ``start`` offsets are process-relative and
  only meaningful for intra-worker ordering). Counters, gauges and
  histograms travel separately, as a metrics delta in the same payload.

Workers are forked where available (Linux), so they inherit warm state —
the use-case dataset disk cache, the ground-truth memo, registered
estimators — for free; on spawn-only platforms tasks must reference
importable, module-level functions, which every caller in this repository
does.
"""

from __future__ import annotations

import os
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.observability.collector import (
    RecordingCollector,
    TracePayload,
    get_collector,
    using_collector,
)
from repro.observability.flight import FLIGHT
from repro.observability.metrics import METRICS, metric_inc
from repro.observability.trace import timed_span

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit argument, ``$REPRO_WORKERS``, or 1.

    Values below 1 clamp to 1 (serial); a malformed environment value is
    ignored rather than crashing the caller.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "")
        try:
            workers = int(raw) if raw else 1
        except ValueError:
            workers = 1
    return max(1, int(workers))


@dataclass(frozen=True)
class TaskFailure:
    """Picklable description of a task that raised or whose worker died."""

    kind: str  #: exception class name (or ``"BrokenProcessPool"``)
    message: str
    traceback: str = ""

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class TaskResult:
    """Outcome of one task: either a value or a failure, never both."""

    index: int
    value: Any = None
    failure: Optional[TaskFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _failure_from(exc: BaseException) -> TaskFailure:
    return TaskFailure(
        kind=type(exc).__name__,
        message=str(exc),
        traceback="".join(traceback.format_exception(exc)),
    )


def _invoke(fn: Callable[[Any], Any], task: Any, tracing: bool):
    """Worker-side shim: run one task under a private collector.

    Returns ``(value_or_failure, payload_or_None)``. Exceptions never
    escape — they become :class:`TaskFailure` values so one bad cell
    cannot poison the pool.

    Metrics travel the same road as traces: forked workers inherit the
    parent's live registry, so the shim snapshots a baseline on entry and
    ships only the task's *delta* back (inside ``payload.metrics``). That
    keeps the merge crash-safe — a worker that dies mid-task contributes
    nothing rather than a corrupt partial state — and is why a payload may
    exist even when tracing is off.
    """
    baseline = METRICS.snapshot()
    collector = RecordingCollector() if tracing else None

    def payload_with_metrics() -> Optional[TracePayload]:
        payload = collector.snapshot() if collector is not None else TracePayload()
        payload.metrics = METRICS.snapshot().delta_since(baseline)
        return None if payload.empty else payload

    try:
        if collector is None:
            value = fn(task)
        else:
            with using_collector(collector):
                value = fn(task)
        return value, payload_with_metrics()
    except Exception as exc:  # noqa: BLE001 - failures are data here
        return _failure_from(exc), payload_with_metrics()


class WorkerPool:
    """A persistent, reusable process pool for serving-shaped workloads.

    :func:`run_tasks` builds and tears down a ``ProcessPoolExecutor`` per
    call — the right trade for batch jobs, but a long-running server paying
    worker fork/spawn on every cold batch would dominate small fan-outs.
    A :class:`WorkerPool` amortizes that: the executor is created lazily on
    first use, reused across :func:`run_tasks` calls (pass it as ``pool=``),
    and transparently rebuilt after a hard worker death so one crashed
    batch does not poison the next.

    Thread-safe; usable as a context manager (``with WorkerPool(4) as p:``).
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created on first use (and after resets)."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
                metric_inc("parallel.pool_spawns")
            return self._executor

    def reset(self) -> None:
        """Discard a (presumed broken) executor; the next use rebuilds."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the executor down for good (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: Optional[int] = None,
    label: str = "parallel.run",
    pool: Optional[WorkerPool] = None,
) -> List[TaskResult]:
    """Execute ``fn(task)`` for every task, possibly across processes.

    Args:
        fn: an importable (module-level) callable; it and every task must
            be picklable when ``workers > 1``.
        tasks: work items, executed independently.
        workers: process count; ``None`` reads ``$REPRO_WORKERS`` (or, with
            ``pool`` given, the pool's size); ``<= 1`` runs serially
            in-process (no pool, live collector).
        label: span name for the surrounding ``timed_span``.
        pool: a persistent :class:`WorkerPool` to run on instead of a
            per-call executor — the serving tier's amortization hook.

    Returns:
        One :class:`TaskResult` per task, **in task order** regardless of
        completion order. Exceptions (and worker deaths, in pool mode)
        surface as ``TaskFailure`` results, not raises.
    """
    if workers is None and pool is not None:
        workers = pool.workers
    workers = resolve_workers(workers)
    tasks = list(tasks)
    with timed_span(label, workers=workers, tasks=len(tasks)):
        if workers <= 1 or len(tasks) <= 1:
            return _run_serial(fn, tasks)
        return _run_pool(fn, tasks, workers, pool=pool)


def _run_serial(fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[TaskResult]:
    results: List[TaskResult] = []
    for index, task in enumerate(tasks):
        try:
            results.append(TaskResult(index=index, value=fn(task)))
        except Exception as exc:  # noqa: BLE001 - mirrored pool semantics
            failure = _failure_from(exc)
            results.append(TaskResult(index=index, failure=failure))
            metric_inc("parallel.failures")
            FLIGHT.trigger_dump(
                "task_failure", task_index=index,
                kind=failure.kind, message=failure.message,
            )
    return results


def _run_pool(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: int,
    pool: Optional[WorkerPool] = None,
) -> List[TaskResult]:
    parent = get_collector()
    tracing = bool(parent.enabled)
    results: List[TaskResult] = [TaskResult(index=i) for i in range(len(tasks))]
    payloads: List[Optional[TracePayload]] = [None] * len(tasks)
    metric_inc("parallel.pool_runs")
    broken = False
    if pool is not None:
        executor = pool.executor()
        owns_executor = False
    else:
        executor = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
        owns_executor = True
    try:
        futures = [
            executor.submit(_invoke, fn, task, tracing) for task in tasks
        ]
        for index, future in enumerate(futures):
            try:
                value, payload = future.result()
            except BrokenProcessPool:
                broken = True
                # The worker died mid-task (segfault, os._exit, OOM kill).
                # Every not-yet-finished future raises the same error; each
                # becomes a failed result so callers see a complete,
                # ordered result list instead of a hung or aborted run.
                results[index].failure = TaskFailure(
                    kind="BrokenProcessPool",
                    message="worker process died before completing this task",
                )
                metric_inc("parallel.broken_pool_tasks")
                FLIGHT.trigger_dump(
                    "task_failure", task_index=index, kind="BrokenProcessPool",
                )
                continue
            except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
                results[index].failure = _failure_from(exc)
                metric_inc("parallel.failures")
                FLIGHT.trigger_dump(
                    "task_failure", task_index=index,
                    kind=results[index].failure.kind,
                    message=results[index].failure.message,
                )
                continue
            payloads[index] = payload
            if isinstance(value, TaskFailure):
                results[index].failure = value
                metric_inc("parallel.failures")
                FLIGHT.trigger_dump(
                    "task_failure", task_index=index,
                    kind=value.kind, message=value.message,
                )
            else:
                results[index].value = value
    finally:
        if owns_executor:
            executor.shutdown(wait=True)
        elif broken and pool is not None:
            # A crashed worker leaves a persistent pool permanently broken;
            # discard it so the pool's next caller gets a fresh executor.
            pool.reset()
    # Merge worker traces and metric deltas in task order — deterministic
    # independent of the order workers actually finished in. Crashed
    # workers shipped no payload, so the merged state is exactly the sum
    # of the surviving tasks.
    for payload in payloads:
        if payload is None:
            continue
        if tracing:
            parent.merge(payload)
        if payload.metrics is not None:
            METRICS.merge(payload.metrics)
    metric_inc("parallel.tasks", float(len(tasks)))
    return results


def map_values(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    workers: Optional[int] = None,
    label: str = "parallel.map",
) -> List[Any]:
    """Like :func:`run_tasks` but unwraps values, re-raising any failure.

    Convenience for callers with no partial-failure story (e.g. building
    leaf sketches, where a failure means the whole computation is wrong).
    """
    results = run_tasks(fn, tasks, workers=workers, label=label)
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"parallel task {result.index} failed: {result.failure}"
            )
    return [result.value for result in results]

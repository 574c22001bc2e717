"""Parallel estimation engine: process-pool fan-out with a serial core.

``repro.parallel`` turns two kinds of independent work — (use case x
estimator) cells in the SparsEst runner and fuzz chunks in
:mod:`repro.verify` — into picklable, name-carrying tasks executed across
worker processes, while keeping ``workers=1`` (the default) byte-for-byte
identical to the serial code paths.

- :mod:`repro.parallel.engine` — ``run_tasks``: ordered fan-out with
  crash isolation and per-worker trace capture, merged back into the
  parent collector in task order.
- ``$REPRO_WORKERS`` — the ambient default worker count, read by
  :func:`resolve_workers` wherever a ``workers`` argument is left unset.

See ``docs/PARALLEL.md`` for the full design.
"""

from repro.parallel.engine import (
    WORKERS_ENV,
    TaskFailure,
    TaskResult,
    resolve_workers,
    run_tasks,
)

__all__ = [
    "TaskFailure",
    "TaskResult",
    "WORKERS_ENV",
    "resolve_workers",
    "run_tasks",
]

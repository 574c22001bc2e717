"""Sketch catalog: content-addressed, memoized estimation serving.

The paper positions the MNC sketch as a cheap synopsis computed *once*
(possibly distributed, Section 3.1) and consulted *many times* during
optimization. This subsystem turns that into a serving-shaped architecture:

- :mod:`repro.catalog.fingerprint` — stable structural fingerprints for
  matrices, sketches, and expression DAG nodes (content hash over shape +
  index digests, recursive over DAG structure);
- :mod:`repro.catalog.store` — :class:`SketchStore`, the one sketch
  store: thread-safe, byte-budgeted LRU, optionally partitioned by
  fingerprint prefix across independently locked shards
  (``num_shards``) and topped by a TTL demotion tier (``ttl_seconds``),
  with ``.npz`` disk spill, concurrent warm start, and persistence built
  on :mod:`repro.core.serialize`;
- :mod:`repro.catalog.memo` — :class:`EstimateMemo`, memoized estimation
  results keyed on ``(fingerprint, estimator, tag)`` with explicit
  invalidation;
- :mod:`repro.catalog.service` — :class:`EstimationService`, the facade:
  register matrices once, answer single and batched ``estimate(expr)``
  requests, reuse cached sketches and estimates across requests.

Integration points: :func:`repro.ir.estimate.estimate_dag` accepts a
``catalog`` and skips re-estimating shared sub-DAGs,
:func:`repro.optimizer.mmchain.optimize_chain_matrices` draws its leaf
sketches from the catalog, the CLI's ``catalog`` subcommand manages on-disk
catalogs, and every hit/miss/eviction/spill is mirrored onto the
observability counters (``catalog.*``) so ``repro stats`` reports cache
effectiveness. See ``docs/CATALOG.md``.
"""

from repro.catalog.fingerprint import (
    FINGERPRINT_VERSION,
    assign_fingerprint,
    delta_fingerprint,
    fingerprint_dag,
    fingerprint_delta,
    fingerprint_expr,
    fingerprint_matrix,
    fingerprint_sketch,
)
from repro.catalog.memo import EstimateMemo
from repro.catalog.service import EstimationService, ServiceRequest
from repro.catalog.store import DEFAULT_BUDGET_BYTES, SketchStore, StoreStats

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "EstimateMemo",
    "EstimationService",
    "ServiceRequest",
    "FINGERPRINT_VERSION",
    "SketchStore",
    "StoreStats",
    "assign_fingerprint",
    "delta_fingerprint",
    "fingerprint_dag",
    "fingerprint_delta",
    "fingerprint_expr",
    "fingerprint_matrix",
    "fingerprint_sketch",
]

"""The :class:`EstimationService` facade: register once, estimate many times.

The paper's serving story — compute the MNC sketch once (possibly on a
cluster), then consult it throughout optimization — becomes an object here:

>>> service = EstimationService()                    # MNC by default
>>> service.register(matrix_x, name="X")
>>> cold = service.estimate(expr)                    # builds + caches
>>> warm = service.estimate(rebuilt_expr)            # pure cache hits
>>> warm["cached"]
True

The service composes the three catalog tables:

- leaf sketches live in a byte-budgeted :class:`~repro.catalog.store.SketchStore`
  (the canonical, persistable artifacts — warm-startable from a catalog
  directory, spillable to disk);
- propagated synopses and root results live in an
  :class:`~repro.catalog.memo.EstimateMemo` keyed on
  ``(fingerprint, estimator, tag)``, so structurally identical sub-DAGs are
  estimated once *across* requests, not just within one DAG walk;
- fingerprints come from :mod:`repro.catalog.fingerprint` and are purely
  structural, so a rebuilt-but-identical expression hits every cache.

One caveat worth knowing: cache identity is the estimator's ``name``. Two
instances of the same estimator class configured differently (e.g. density
maps with different block sizes) share a name — give them separate services
rather than sharing one catalog.
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.catalog.fingerprint import (
    delta_fingerprint,
    fingerprint_dag,
    fingerprint_expr,
    fingerprint_matrix,
)
from repro.catalog.memo import EstimateMemo
from repro.catalog.store import SketchStore
from repro.core.sketch import MNCSketch
from repro.errors import ReproError, SketchError
from repro.estimators.base import SparsityEstimator, Synopsis, make_estimator
from repro.estimators.mnc import MNCEstimator, MNCSynopsis
from repro.estimators.spec import EstimatorSpec
from repro.ir.nodes import Expr
from repro.matrix.conversion import MatrixLike
from repro.observability.recording import unwrap_estimator
from repro.observability.metrics import metric_inc
from repro.observability.trace import timed_span
from repro.opcodes import Op
from repro.parallel.engine import WorkerPool, resolve_workers, run_tasks
from repro.parallel.spill import PortableDag, load_dag, spill_dag


@dataclass(frozen=True)
class ServiceRequest:
    """One unit of :class:`EstimationService` work, for :meth:`~EstimationService.submit`.

    The request object is the service's single entry-point API: the three
    historical call shapes — one expression, a batch of expressions, a
    matrix-chain optimization — are ``kind`` values of the same request
    type, built with the :meth:`estimate`, :meth:`batch`, and
    :meth:`chain` constructors.
    """

    kind: str  # "estimate" | "estimate_many" | "optimize_chain"
    exprs: Tuple[Expr, ...] = ()
    matrices: Tuple[MatrixLike, ...] = ()
    include_intermediates: bool = False
    workers: Optional[int] = None
    rng: Any = None
    #: Per-request estimator override (``None`` = the service's own). An
    #: ``auto`` spec routes the request through the adaptive router.
    estimator: Optional[EstimatorSpec] = None

    @classmethod
    def estimate(
        cls,
        expr: Expr,
        *,
        include_intermediates: bool = False,
        estimator: Union[EstimatorSpec, str, Mapping, None] = None,
        tolerance: Optional[float] = None,
    ) -> "ServiceRequest":
        """Estimate one expression root."""
        return cls(kind="estimate", exprs=(expr,),
                   include_intermediates=include_intermediates,
                   estimator=_request_spec(estimator, tolerance))

    @classmethod
    def batch(
        cls,
        exprs: Sequence[Expr],
        *,
        workers: Optional[int] = None,
        estimator: Union[EstimatorSpec, str, Mapping, None] = None,
        tolerance: Optional[float] = None,
    ) -> "ServiceRequest":
        """Estimate a batch of expression roots, optionally in parallel."""
        return cls(kind="estimate_many", exprs=tuple(exprs), workers=workers,
                   estimator=_request_spec(estimator, tolerance))

    @classmethod
    def chain(cls, matrices: Sequence[MatrixLike], *, rng: Any = None,
              workers: Optional[int] = None) -> "ServiceRequest":
        """Sparsity-aware matrix-chain optimization."""
        return cls(kind="optimize_chain", matrices=tuple(matrices), rng=rng,
                   workers=workers)


def _request_spec(
    estimator: Union[EstimatorSpec, str, Mapping, None],
    tolerance: Optional[float],
) -> Optional[EstimatorSpec]:
    """Parse a per-request estimator override; a bare *tolerance* implies
    ``estimator="auto"`` (tolerance is a routing concept)."""
    if estimator is None and tolerance is None:
        return None
    return EstimatorSpec.parse(estimator, tolerance=tolerance)


class EstimationService:
    """Memoized sparsity estimation over a shared sketch catalog.

    Args:
        estimator: a registered estimator name, an
            :class:`~repro.estimators.spec.EstimatorSpec` (or the dict/str
            forms it parses — ``"auto"`` selects adaptive routing), or an
            estimator instance (default MNC).
        store: sketch store to use/share; a fresh in-memory
            single-shard :class:`SketchStore` by default.
        memo: result memo to use/share; fresh by default.
        pool: persistent :class:`~repro.parallel.engine.WorkerPool` for
            parallel batches; ``None`` keeps the historical per-call pool.
        policy: learned :class:`~repro.router.RoutingPolicy` shared by
            every ``auto`` route (the service's own and per-request ones);
            defaults to the policy persisted next to the store's spill
            directory (when any), else a fresh one.

    A request may name its own :class:`EstimatorSpec`; the service answers
    it with one estimator instance per ``spec.key`` (one router per auto
    ``spec.key``), made on first use and kept, over the same store, memo
    and counters.
    """

    def __init__(
        self,
        estimator: Union[str, Mapping, EstimatorSpec, SparsityEstimator] = "mnc",
        store: Optional[SketchStore] = None,
        memo: Optional[EstimateMemo] = None,
        pool: Optional[WorkerPool] = None,
        policy: Optional["RoutingPolicy"] = None,
    ):
        self.store = store if store is not None else SketchStore()
        self.memo = memo if memo is not None else EstimateMemo()
        self.pool = pool
        self.router = None
        self.spec: Optional[EstimatorSpec] = None
        self._policy = policy
        # Guards the counters and the per-spec table: services are shared
        # across server threads, and unsynchronized += drops increments.
        self._lock = threading.Lock()
        self._requests = 0
        self._hits = 0
        #: Per-request spec key -> what :meth:`_resolve` returns for it.
        self._per_spec: Dict[str, Tuple[Any, str, str]] = {}
        if isinstance(estimator, SparsityEstimator):
            self.estimator = estimator
        else:
            spec = EstimatorSpec.parse(estimator)
            self.spec = spec
            if spec.is_auto:
                self.router = self._make_router(spec)
                # Registration and chain optimization still go through the
                # canonical MNC sketch (the store's shareable artifact);
                # only estimation requests are routed.
                self.estimator = make_estimator("mnc")
            else:
                self.estimator = spec.make()
        #: Logical name -> fingerprint for matrices registered with a name.
        self.names: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, matrix: MatrixLike, name: Optional[str] = None) -> str:
        """Fingerprint *matrix* and cache its leaf synopsis eagerly.

        Returns the fingerprint; with *name* given, the mapping is kept in
        :attr:`names` so later calls can resolve the logical name.
        """
        fingerprint = fingerprint_matrix(matrix)
        if name is not None:
            self.names[name] = fingerprint
        if self._builds_canonical_sketch(self.estimator):
            self.sketch_for(matrix)
        else:
            key = self._estimator_key(self.estimator)
            if self.memo.get(fingerprint, key, "synopsis") is None:
                self.memo.put(
                    fingerprint, key, "synopsis", self.estimator.build(matrix)
                )
        return fingerprint

    def register_sketched(
        self,
        matrix: MatrixLike,
        sketch: MNCSketch,
        name: Optional[str] = None,
    ) -> str:
        """Register *matrix* with a pre-built *sketch* as its leaf synopsis.

        The distributed-ingest entry point: when shards were sketched
        remotely and merged via :mod:`repro.core.distributed`, the merged
        sketch — not a locally rebuilt one — must be what estimation sees,
        because merging drops extension vectors along the merge axis and a
        rebuild would silently answer with different (tighter) bounds than
        the distributed pipeline that produced the catalog. The sketch is
        stored under the matrix's structural fingerprint unconditionally,
        replacing any cached sketch for the same non-zero pattern.
        """
        if sketch.shape != tuple(int(d) for d in matrix.shape):
            raise SketchError(
                f"sketch shape {sketch.shape} does not match matrix shape "
                f"{tuple(matrix.shape)}"
            )
        fingerprint = fingerprint_matrix(matrix)
        if name is not None:
            self.names[name] = fingerprint
        self.store.put(fingerprint, sketch)
        metric_inc("catalog.service.register_sketched")
        return fingerprint

    def sketch_for(self, matrix: MatrixLike) -> MNCSketch:
        """The canonical MNC sketch of *matrix*, built at most once.

        Goes through the store, so repeated calls — and the chain optimizer
        wired through :func:`~repro.optimizer.mmchain.optimize_chain_matrices`
        — reuse one sketch per distinct non-zero pattern.
        """
        fingerprint = fingerprint_matrix(matrix)
        sketch = self.store.get(fingerprint)
        if sketch is None:
            sketch = MNCSketch.from_matrix(matrix)
            self.store.put(fingerprint, sketch)
        return sketch

    def resolve(self, name: str) -> str:
        """Fingerprint registered under logical *name*."""
        try:
            return self.names[name]
        except KeyError:
            raise SketchError(f"no matrix registered under name {name!r}") from None

    def apply_update(self, name: str, incremental, delta) -> str:
        """Apply a streaming *delta* to the matrix registered as *name*.

        *incremental* is the caller-owned
        :class:`~repro.core.incremental.IncrementalSketch` tracking the
        matrix's structure. The delta is applied, the logical name is
        rebound to the delta-chained fingerprint (``O(|delta|)``, no
        structural rehash), and the old fingerprint is invalidated —
        including, via the memo's dependency index, every memoized result
        derived from the old structure, while entries over untouched
        leaves survive (partial invalidation). Returns the new
        fingerprint; the patched sketch is stored under it eagerly.
        """
        from repro.core.incremental import apply_update as _apply

        old_fingerprint = self.resolve(name)
        _apply(incremental, delta)
        new_fingerprint = delta_fingerprint(old_fingerprint, delta)
        self.store.discard(old_fingerprint)
        self.memo.invalidate(fingerprint=old_fingerprint)
        self.names[name] = new_fingerprint
        if self._builds_canonical_sketch(self.estimator):
            self.store.put(new_fingerprint, incremental.sketch())
        metric_inc("catalog.service.updates")
        return new_fingerprint

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def submit(self, request: ServiceRequest) -> Any:
        """Execute one :class:`ServiceRequest` — the single entry point the
        historical ``estimate`` / ``estimate_many`` / ``optimize_chain``
        methods now delegate to.

        Returns the result dict for ``"estimate"``, a list of result dicts
        for ``"estimate_many"``, and the optimizer's plan object for
        ``"optimize_chain"``.
        """
        metric_inc(f"catalog.service.requests.{request.kind}")
        if request.kind == "estimate":
            if len(request.exprs) != 1:
                raise ReproError(
                    "an 'estimate' request carries exactly one expression; "
                    f"got {len(request.exprs)} (use ServiceRequest.batch)"
                )
            return self._estimate_one(
                request.exprs[0], request.estimator,
                include_intermediates=request.include_intermediates,
            )
        if request.kind == "estimate_many":
            return self._estimate_batch(
                request.exprs, request.estimator, workers=request.workers
            )
        if request.kind == "optimize_chain":
            from repro.optimizer.mmchain import optimize_chain_matrices

            return optimize_chain_matrices(
                request.matrices, rng=request.rng, catalog=self,
                workers=request.workers,
            )
        raise ReproError(f"unknown ServiceRequest kind {request.kind!r}")

    def _resolve(
        self, spec: Optional[EstimatorSpec]
    ) -> Tuple[Any, str, str]:
        """``(estimator or router, memo key, memo tag)`` answering *spec*
        (``None``: this service's own estimator).

        Plain estimators memoize roots under their ``name`` with tag
        ``"nnz"``; routers memoize ``(nnz, router payload)`` under the
        spec's canonical key with tag ``"route"``, so an ``auto`` request
        at one tolerance never answers a request at another.
        """
        if spec is None or spec == self.spec:
            if self.router is not None:
                return self.router, self.spec.key, "route"
            return self.estimator, self._estimator_key(self.estimator), "nnz"
        with self._lock:
            resolved = self._per_spec.get(spec.key)
            if resolved is None:
                if spec.is_auto:
                    resolved = (self._make_router(spec), spec.key, "route")
                else:
                    estimator = spec.make()
                    resolved = (estimator, self._estimator_key(estimator), "nnz")
                self._per_spec[spec.key] = resolved
        return resolved

    def _make_router(self, spec: EstimatorSpec):
        """A router for *spec* over the service's one routing policy."""
        from repro.router import AdaptiveRouter, RoutingPolicy

        if self._policy is None:
            self._policy = RoutingPolicy.load(self.store.spill_dir)
        router = AdaptiveRouter.from_spec(spec, policy=self._policy)
        self._policy = router.policy
        return router

    def is_memoized(
        self, expr: Expr, spec: Optional[EstimatorSpec] = None
    ) -> bool:
        """Whether an ``estimate`` of *expr* under *spec* (``None`` = this
        service's own estimator) would be answered from the memo.

        Side-effect free: counts nothing and leaves LRU recency alone, so
        a caller that checks before :meth:`submit` reads every counter
        exactly as one that only submitted.
        """
        _, key, tag = self._resolve(spec)
        return (fingerprint_expr(expr), key, tag) in self.memo

    def estimate(
        self, expr: Expr, include_intermediates: bool = False
    ) -> Dict[str, Any]:
        """Estimate the root sparsity of *expr*, reusing every cached piece.

        Returns the :func:`~repro.ir.estimate.estimate_dag` result dict plus
        ``fingerprint`` (the root's structural fingerprint) and ``cached``
        (``True`` when the root estimate itself was memoized — the warm
        path performs no synopsis work at all).
        """
        return self.submit(ServiceRequest.estimate(
            expr, include_intermediates=include_intermediates
        ))

    def _estimate_one(
        self, expr: Expr, spec: Optional[EstimatorSpec] = None,
        include_intermediates: bool = False,
    ) -> Dict[str, Any]:
        from repro.ir.estimate import estimate_dag

        resolved, estimator_key, tag = self._resolve(spec)
        root_fingerprint = fingerprint_expr(expr)
        with self._lock:
            self._requests += 1
        with timed_span(
            "catalog.service.estimate", estimator=estimator_key
        ) as span:
            value = (
                None
                if include_intermediates
                else self.memo.get(root_fingerprint, estimator_key, tag)
            )
            intermediates = None
            if value is None:
                if tag == "route":
                    nnz, decision = resolved.route(expr, catalog=self)
                    value = (nnz, decision.to_payload())
                    if include_intermediates:
                        tier_estimator = resolved.make_tier_estimator(
                            expr, decision.tier
                        )
                        intermediates = estimate_dag(
                            expr, tier_estimator, include_intermediates=True
                        ).get("intermediates")
                else:
                    full = estimate_dag(
                        expr,
                        resolved,
                        include_intermediates=include_intermediates,
                        catalog=self,
                    )
                    value = full["nnz"]
                    intermediates = full.get("intermediates")
                self.memo.put(
                    root_fingerprint, estimator_key, tag, value,
                    depends_on=_leaf_fingerprints(expr),
                )
                cached = False
                metric_inc("catalog.service.miss")
            else:
                with self._lock:
                    self._hits += 1
                cached = True
                metric_inc("catalog.service.hit")
            nnz, router_meta = value if tag == "route" else (value, None)
            span.annotate(cached=cached, result_nnz=float(nnz))
        result = _result(
            expr, root_fingerprint, nnz, span.seconds, cached, router_meta
        )
        if intermediates is not None:
            result["intermediates"] = intermediates
        return result

    def estimate_many(
        self, exprs: Sequence[Expr], workers: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Batched :meth:`estimate`.

        Serial batches (``workers`` unset/1) reuse synopses and results
        cached by earlier expressions in the batch. With ``workers > 1``,
        uncached roots fan out to worker processes over the shared-spill
        protocol: leaf matrices and resident sketches travel once through
        the catalog directory (the store's spill dir, or a temporary one),
        each worker rebuilds its expressions against a warm-started store,
        and root results flow back into this service's memo. Workers
        estimate with independent copies of the estimator, so estimators
        that consume randomness across calls (e.g. MNC's probabilistic
        rounding) may round differently than a serial batch would — results
        are deterministic for any fixed worker count > 1.
        """
        return self.submit(ServiceRequest.batch(exprs, workers=workers))

    def _estimate_batch(
        self, exprs: Sequence[Expr], spec: Optional[EstimatorSpec] = None,
        workers: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        exprs = list(exprs)
        workers = resolve_workers(workers)
        with timed_span(
            "catalog.service.batch", size=len(exprs), workers=workers
        ):
            if workers <= 1 or len(exprs) <= 1:
                return [self._estimate_one(expr, spec) for expr in exprs]
            return self._estimate_batch_parallel(exprs, spec, workers)

    def _estimate_batch_parallel(
        self, exprs: List[Expr], spec: Optional[EstimatorSpec], workers: int
    ) -> List[Dict[str, Any]]:
        """Fan uncached roots out to worker processes via shared spill.

        One task ships per distinct uncached root fingerprint; a later
        repeat in the batch is answered from the first one's result as a
        memo hit, exactly as the serial path answers it.
        """
        _, estimator_key, tag = self._resolve(spec)
        routed = tag == "route"
        results: List[Optional[Dict[str, Any]]] = [None] * len(exprs)
        pending: List[Tuple[int, Expr, str]] = []
        first_index: Dict[str, int] = {}
        repeats: List[Tuple[int, Expr, str]] = []
        for i, expr in enumerate(exprs):
            fingerprint = fingerprint_expr(expr)
            if fingerprint in first_index:
                repeats.append((i, expr, fingerprint))
                continue
            value = self.memo.get(fingerprint, estimator_key, tag)
            if value is None:
                first_index[fingerprint] = i
                pending.append((i, expr, fingerprint))
                continue
            # Warm path: answer from the parent memo without shipping.
            nnz, router_meta = value if routed else (value, None)
            results[i] = self._batch_hit(expr, fingerprint, nnz, router_meta)
        if len(pending) == 1:
            index, expr, _ = pending[0]
            results[index] = self._estimate_one(expr, spec)
        elif pending:
            self._fan_out(pending, results, workers, spec)
        for index, expr, fingerprint in repeats:
            first = results[first_index[fingerprint]]
            results[index] = self._batch_hit(
                expr, fingerprint, first["nnz"], first.get("router")
            )
        return [result for result in results if result is not None]

    def _batch_hit(
        self, expr: Expr, fingerprint: str, nnz: float,
        router_meta: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """A batch answer served without estimation, counted as a hit."""
        with self._lock:
            self._requests += 1
            self._hits += 1
        metric_inc("catalog.service.hit")
        return _result(expr, fingerprint, nnz, 0.0, True, router_meta)

    def _fan_out(
        self, pending: List[Tuple[int, Expr, str]],
        results: List[Optional[Dict[str, Any]]], workers: int,
        spec: Optional[EstimatorSpec],
    ) -> None:
        """Estimate *pending* roots in worker processes into *results*."""
        resolved, estimator_key, tag = self._resolve(spec)
        directory = self.store.spill_dir
        cleanup = None
        if directory is None:
            cleanup = tempfile.TemporaryDirectory(prefix="repro-spill-")
            directory = cleanup.name
        try:
            # Resident sketches travel to workers through the directory
            # (store.persist is a no-op for non-sketch estimators' services,
            # whose state lives in the memo instead).
            if len(self.store):
                self.store.persist(directory)
            if tag == "route":
                # Workers route against the frozen policy snapshot this
                # service would use, so parallel and serial batches take
                # bit-identical routes.
                shipped: Any = (
                    _AUTO_TASK, spec if spec is not None else self.spec,
                    resolved.policy.snapshot(),
                )
            else:
                shipped = resolved
            tasks = [
                (shipped, str(directory), spill_dag(expr, directory))
                for _, expr, _ in pending
            ]
            task_results = run_tasks(
                _estimate_worker, tasks, workers=workers,
                label="catalog.service.fanout", pool=self.pool,
            )
            for (index, expr, fingerprint), outcome in zip(pending, task_results):
                if not outcome.ok:
                    # Worker died: recover deterministically in-process
                    # (_estimate_one does its own counting and memoization).
                    metric_inc("catalog.service.fanout_retries")
                    results[index] = self._estimate_one(expr, spec)
                    continue
                with self._lock:
                    self._requests += 1
                metric_inc("catalog.service.miss")
                result = dict(outcome.value)
                value = (
                    (result["nnz"], result["router"]) if tag == "route"
                    else result["nnz"]
                )
                self.memo.put(
                    fingerprint, estimator_key, tag, value,
                    depends_on=_leaf_fingerprints(expr),
                )
                results[index] = result
        finally:
            if cleanup is not None:
                cleanup.cleanup()

    def optimize_chain(self, matrices: Sequence[MatrixLike], rng=None,
                       workers: Optional[int] = None):
        """Sparsity-aware chain optimization over catalog-cached sketches."""
        return self.submit(ServiceRequest.chain(
            matrices, rng=rng, workers=workers
        ))

    # ------------------------------------------------------------------
    # Catalog protocol (used by repro.ir.estimate during DAG walks)
    # ------------------------------------------------------------------

    def node_synopsis_get(
        self, fingerprint: str, node: Expr, estimator: SparsityEstimator
    ) -> Optional[Synopsis]:
        """Cached synopsis for a DAG node, or ``None``."""
        key = self._estimator_key(estimator)
        synopsis = self.memo.get(fingerprint, key, "synopsis")
        if synopsis is not None:
            return synopsis
        if node.op is Op.LEAF and self._builds_canonical_sketch(estimator):
            sketch = self.store.get(fingerprint)
            if sketch is not None:
                return MNCSynopsis(sketch)
        return None

    def node_synopsis_put(
        self,
        fingerprint: str,
        node: Expr,
        estimator: SparsityEstimator,
        synopsis: Synopsis,
    ) -> None:
        """Cache a freshly built/propagated synopsis for a DAG node.

        Canonical leaf sketches go to the byte-budgeted store (persistable,
        spillable); everything else — propagated synopses and non-MNC leaf
        synopses — goes to the entry-bounded memo.
        """
        if (
            node.op is Op.LEAF
            and self._builds_canonical_sketch(estimator)
            and isinstance(synopsis, MNCSynopsis)
        ):
            self.store.put(fingerprint, synopsis.sketch)
            return
        self.memo.put(
            fingerprint, self._estimator_key(estimator), "synopsis", synopsis,
            depends_on=(
                _leaf_fingerprints(node) if node.op is not Op.LEAF else None
            ),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def warm(self, directory) -> List[str]:
        """Warm-start the store from a catalog directory of sketch files.

        A routing policy persisted alongside the sketches
        (``routing_policy.json``) is folded into the active router's
        policy, so routing keeps improving across sessions.
        """
        loaded = self.store.warm_start(directory)
        router = self._router()
        if router is not None:
            from repro.router import RoutingPolicy

            persisted = RoutingPolicy.load(str(directory))
            if persisted is not None:
                router.policy.merge(persisted)
        return loaded

    def persist(self, directory=None) -> int:
        """Write resident sketches out as a catalog directory (plus the
        routing policy, when this service routes). Returns the number of
        sketches written."""
        written = self.store.persist(directory)
        router = self._router()
        if router is not None:
            target = directory if directory is not None else self.store.spill_dir
            if target is not None:
                router.policy.save(str(target))
        return written

    def _router(self):
        """The active router: this service's, or the first per-request one."""
        if self.router is not None:
            return self.router
        with self._lock:
            per_spec = list(self._per_spec.values())
        for resolved, _, tag in per_spec:
            if tag == "route":
                return resolved
        return None

    def invalidate(self, target: Union[str, MatrixLike]) -> None:
        """Forget everything cached for a matrix, fingerprint, or name."""
        if isinstance(target, str):
            fingerprint = self.names.get(target, target)
        else:
            fingerprint = fingerprint_matrix(target)
        self.store.discard(fingerprint)
        self.memo.invalidate(fingerprint=fingerprint)

    def clear(self) -> None:
        """Drop all cached sketches and results (names are kept)."""
        self.store.clear()
        self.memo.clear()

    def stats(self) -> Dict[str, Any]:
        """Combined service/store/memo cache-effectiveness counters.

        A ``router`` section appears whenever adaptive routing is active,
        for the service's own estimator or any per-request spec.
        """
        with self._lock:
            requests, hits = self._requests, self._hits
        payload: Dict[str, Any] = {
            "service": {
                "requests": requests,
                "hits": hits,
                "hit_rate": hits / requests if requests else 0.0,
            },
            "store": self.store.stats().as_dict(),
            "memo": self.memo.stats(),
        }
        router = self._router()
        if router is not None:
            payload["router"] = router.describe()
        return payload

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _estimator_key(estimator: SparsityEstimator) -> str:
        return estimator.name

    @staticmethod
    def _builds_canonical_sketch(estimator: SparsityEstimator) -> bool:
        """Whether *estimator* builds the full-extension MNC leaf sketch the
        store treats as the canonical shareable artifact."""
        inner = unwrap_estimator(estimator)
        return isinstance(inner, MNCEstimator) and getattr(
            inner, "use_extensions", False
        )


def _result(
    expr: Expr, fingerprint: str, nnz: float, seconds: float, cached: bool,
    router_meta: Optional[Mapping[str, Any]],
) -> Dict[str, Any]:
    """The result dict of one root estimate (``router`` only when routed)."""
    m, n = expr.shape
    result: Dict[str, Any] = {
        "nnz": nnz,
        "sparsity": nnz / (m * n) if m and n else 0.0,
        "seconds": seconds,
        "fingerprint": fingerprint,
        "cached": cached,
    }
    if router_meta is not None:
        result["router"] = dict(router_meta)
    return result


def _leaf_fingerprints(expr: Expr) -> Tuple[str, ...]:
    """Distinct leaf fingerprints under *expr*, in first-visit order.

    The memo's ``depends_on`` payload: a streaming delta to any one of
    these leaves invalidates exactly the results derived from it. Cheap on
    the hot path — every per-node digest is already memoized on the Expr
    objects by :func:`fingerprint_dag`.
    """
    fingerprints = fingerprint_dag(expr)
    return tuple(
        dict.fromkeys(fingerprints[id(leaf)] for leaf in expr.leaves())
    )


#: Sentinel heading the shipped-estimator tuple for routed fan-out tasks.
_AUTO_TASK = "__auto__"


def _estimate_worker(
    task: Tuple[Any, str, PortableDag]
) -> Dict[str, Any]:
    """Worker entry point for the parallel ``estimate_many`` path.

    Rebuilds one spilled expression against a store warm-started from the
    shared catalog directory, estimates it with a private service, and
    returns the plain result dict. Routed tasks ship
    ``(_AUTO_TASK, spec, policy snapshot)`` in the estimator slot; the
    worker routes against that frozen snapshot, never its own ledger, so
    its route matches what the parent would have taken serially.
    """
    estimator, directory, portable = task
    store = SketchStore(spill_dir=directory)
    store.warm_start(directory)
    if isinstance(estimator, tuple) and estimator and estimator[0] == _AUTO_TASK:
        from repro.router import RoutingPolicy

        _, spec, policy_snapshot = estimator
        service = EstimationService(
            estimator=spec, store=store,
            policy=RoutingPolicy.from_snapshot(policy_snapshot),
        )
    else:
        service = EstimationService(estimator=estimator, store=store)
    expr = load_dag(portable, directory)
    return service._estimate_one(expr)

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
- propagated synopses and root results live in a byte-budgeted
  :class:`~repro.catalog.memo.EstimateMemo` keyed on
  ``(fingerprint, estimator, tag)``, so structurally identical sub-DAGs are
  estimated once *across* requests, not just within one DAG walk;
- fingerprints come from :mod:`repro.catalog.fingerprint` and are purely
  structural, so a rebuilt-but-identical expression hits every cache.

Memo identity is the :attr:`~repro.estimators.spec.EstimatorSpec.key` of
the spec an estimator was made from, so specs that differ only in seed or
options never answer each other (a default spec's key is its bare name).
An estimator *instance* handed to the constructor is identified by its
``name``: two differently configured instances of one class (e.g. density
maps with different block sizes) share a name — give them separate
services rather than sharing one catalog.
"""

from __future__ import annotations

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
        estimator: Union[EstimatorSpec, str, Mapping, None] = None,
        tolerance: Optional[float] = None,
    ) -> "ServiceRequest":
        """Estimate a batch of expression roots, one after another."""
        return cls(kind="estimate_many", exprs=tuple(exprs),
                   estimator=_request_spec(estimator, tolerance))

    @classmethod
    def chain(cls, matrices: Sequence[MatrixLike], *,
              rng: Any = None) -> "ServiceRequest":
        """Sparsity-aware matrix-chain optimization."""
        return cls(kind="optimize_chain", matrices=tuple(matrices), rng=rng)


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
        policy: Optional["RoutingPolicy"] = None,
    ):
        self.store = store if store is not None else SketchStore()
        self.memo = memo if memo is not None else EstimateMemo()
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
        #: Estimator made from a spec -> that spec's key (its memo key).
        self._spec_keys: Dict[SparsityEstimator, str] = {}
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
                self._spec_keys[self.estimator] = spec.key
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
                    fingerprint, key, "synopsis",
                    _memoized(self.estimator.build(matrix)),
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
        """Execute one :class:`ServiceRequest` — the service's single entry
        point (:meth:`estimate` is shorthand for a one-root request).

        Returns the result dict for ``"estimate"``, a list of result dicts
        for ``"estimate_many"``, and the optimizer's plan object for
        ``"optimize_chain"``. A batch is answered root by root, in order,
        exactly as the same roots submitted one at a time: a later repeat
        of a root is a counted memo hit.
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
            with timed_span("catalog.service.batch", size=len(request.exprs)):
                return [
                    self._estimate_one(expr, request.estimator)
                    for expr in request.exprs
                ]
        if request.kind == "optimize_chain":
            from repro.optimizer.mmchain import optimize_chain_matrices

            return optimize_chain_matrices(
                request.matrices, rng=request.rng, catalog=self
            )
        raise ReproError(f"unknown ServiceRequest kind {request.kind!r}")

    def _resolve(
        self, spec: Optional[EstimatorSpec]
    ) -> Tuple[Any, str, str]:
        """``(estimator or router, memo key, memo tag)`` answering *spec*
        (``None``: this service's own estimator).

        Plain estimators memoize roots under their spec's canonical key
        with tag ``"nnz"`` (a seeded ``mnc`` request never answers a
        default one); routers memoize ``(nnz, router payload)`` under it
        with tag ``"route"``, so an ``auto`` request at one tolerance never
        answers a request at another.
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
                    self._spec_keys[estimator] = spec.key
                    resolved = (estimator, spec.key, "nnz")
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
        synopses — goes to the byte-budgeted memo.
        """
        if (
            node.op is Op.LEAF
            and self._builds_canonical_sketch(estimator)
            and isinstance(synopsis, MNCSynopsis)
        ):
            self.store.put(fingerprint, synopsis.sketch)
            return
        self.memo.put(
            fingerprint, self._estimator_key(estimator), "synopsis",
            _memoized(synopsis),
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

    def _estimator_key(self, estimator: SparsityEstimator) -> str:
        """Memo key of *estimator*: its spec's key when this service made
        it from a spec, else its name (router tiers, given instances)."""
        return self._spec_keys.get(estimator, estimator.name)

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


def _memoized(synopsis: Synopsis) -> Synopsis:
    """The form of *synopsis* the memo keeps.

    An MNC sketch caches float64 views of its counts on first use, which
    would grow a memo entry past the charge it was admitted with; the memo
    keeps a :meth:`~repro.core.sketch.MNCSketch.counts_only` twin instead.
    The caller's synopsis is untouched and keeps caching for the rest of
    its DAG walk.
    """
    if isinstance(synopsis, MNCSynopsis):
        return MNCSynopsis(synopsis.sketch.counts_only())
    return synopsis


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

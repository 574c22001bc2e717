"""Span recording around the program's public functions, self-time
computation, and the client/server join for the serve workloads.

The traced run never touches the program's own collector. Instead
:func:`install` replaces selected public functions and methods with
wrappers that record one span per call: layer, function name, start, end
(``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across processes), the parent span from a thread-local stack,
the benchmark operation the call belongs to, and an optional info value.
Spans stay in memory until the run ends.

Module-level functions are patched in every loaded ``repro`` module that
holds them, because callers look them up under the name they imported.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span fields, in the order a span list stores them.
FIELDS = ("id", "layer", "name", "start", "end", "parent", "op", "info")
ID, LAYER, NAME, START, END, PARENT, OP, INFO = range(len(FIELDS))


class SpanRecorder:
    """In-memory span store plus the wrapper factory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: Id of the benchmark operation in progress (in-process runs).
        self.op: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        info: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable:
        """A wrapper around *fn* that records a span per call.

        Return values and exceptions pass through unchanged. *info*, when
        given, maps ``(args, result)`` to a small value stored on the span
        (computed after the span ends).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span = [next(recorder._ids), layer, name, 0.0, 0.0,
                    stack[-1] if stack else None, recorder.op, None]
            recorder.spans.append(span)
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        wrapper.traced_original = fn
        return wrapper

    def operation(self, op_id: int, kind: str) -> "_Operation":
        """Context manager recording one benchmark operation as a root span."""
        return _Operation(self, op_id, kind)

    def finished_spans(self) -> List[list]:
        """Spans with lazy info values resolved, ordered by id."""
        spans = sorted(self.spans, key=lambda span: span[ID])
        for span in spans:
            if callable(span[INFO]):
                span[INFO] = span[INFO]()
        return spans


class _Operation:
    def __init__(self, recorder: SpanRecorder, op_id: int, kind: str):
        self.recorder = recorder
        self.span = [next(recorder._ids), "op", kind, 0.0, 0.0, None, op_id, None]

    def __enter__(self) -> "_Operation":
        self.recorder.op = self.span[OP]
        self.recorder.spans.append(self.span)
        self.recorder._stack().append(self.span[ID])
        self.span[START] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.span[END] = time.perf_counter()
        self.recorder._stack().pop()
        self.recorder.op = None


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------

def _hit(args: tuple, result: Any) -> bool:
    return result is not None


def _dag_nodes(args: tuple, result: Any) -> Callable[[], int]:
    root = args[0]
    return lambda: sum(1 for _ in root.postorder())


def _route(args: tuple, result: Any) -> Tuple[int, int]:
    decision = result[1]
    return (int(decision.escalations), len(decision.tiers_tried))


def _nbytes(*positions: int) -> Callable[[tuple, Any], int]:
    # Positions count ``self`` as 0; only the kernel's input arrays count.
    def info(args: tuple, result: Any) -> int:
        return sum(int(args[i].nbytes) for i in positions)

    return info


#: Kernel-backend primitives and the positions of their input arrays.
BACKEND_PRIMITIVES = {
    "dot": (1, 2),
    "dm_collision_log1p": (1, 2),
    "tree_sum": (1,),
    "prob_round_into": (1, 2),
    "scale_round_into": (1, 3),
    "reconcile_bulk": (1,),
}

#: (layer, "module:attribute" or "module:Class.method", info).
TARGETS: List[Tuple[str, str, Optional[Callable]]] = [
    ("serve.protocol.decode", "repro.serve.protocol:decode_estimate_request", None),
    ("serve.protocol.decode", "repro.serve.protocol:decode_update_request", None),
    ("serve.protocol.decode", "repro.serve.protocol:decode_register_request", None),
    ("serve.protocol.decode", "repro.serve.protocol:decode_matrix", None),
    ("serve.protocol.decode", "repro.serve.protocol:canonical_expr_key", None),
    ("serve.protocol.decode_expr", "repro.serve.protocol:decode_expr", None),
    ("serve.protocol.encode", "repro.serve.protocol:encode_estimate_result", None),
    ("serve.protocol.encode", "repro.serve.protocol:encode_chain_solution", None),
    ("serve.registry.update", "repro.serve.registry:MatrixRegistry.apply_update", None),
    ("core.incremental.apply", "repro.core.incremental:apply_update", None),
    ("core.incremental.to_matrix", "repro.core.incremental:IncrementalSketch.to_matrix", None),
    ("core.incremental.sketch", "repro.core.incremental:IncrementalSketch.sketch", None),
    ("catalog.memo.invalidate", "repro.catalog.memo:EstimateMemo.invalidate", None),
    ("catalog.memo.get", "repro.catalog.memo:EstimateMemo.get", _hit),
    ("catalog.service", "repro.catalog.service:EstimationService.submit", None),
    ("catalog.fingerprint", "repro.catalog.fingerprint:fingerprint_expr", None),
    ("catalog.fingerprint", "repro.catalog.fingerprint:fingerprint_dag", None),
    ("catalog.fingerprint", "repro.catalog.fingerprint:fingerprint_matrix", None),
    ("catalog.fingerprint", "repro.catalog.fingerprint:delta_fingerprint", None),
    ("catalog.store.get", "repro.catalog.store:SketchStore.get", _hit),
    ("catalog.store.get", "repro.catalog.sharded:ShardedSketchStore.get", _hit),
    ("ir.dag", "repro.ir.estimate:estimate_dag", _dag_nodes),
    ("ir.dag", "repro.ir.estimate:estimate_root_nnz", _dag_nodes),
    ("ir.evaluate", "repro.ir.interpreter:evaluate", None),
    ("estimators.propagate", "repro.estimators.base:SparsityEstimator.propagate", None),
    ("estimators.estimate_nnz", "repro.estimators.base:SparsityEstimator.estimate_nnz", None),
    ("core.propagate_product", "repro.core.propagate:propagate_product", None),
    ("core.estimate_product_nnz", "repro.core.estimate:estimate_product_nnz", None),
    ("optimizer.dp", "repro.optimizer.mmchain:optimize_chain_sparse", None),
    ("optimizer.flops", "repro.optimizer.cost:sparse_matmul_flops", None),
    ("router.route", "repro.router.adaptive:AdaptiveRouter.route", _route),
    ("sparsest.cell", "repro.sparsest.runner:execute_request", None),
    ("sparsest.cell", "repro.sparsest.runner:true_nnz_of", None),
] + [
    (f"backends.{name}", f"repro.backends.numpy_backend:NumpyBackend.{name}",
     _nbytes(*positions))
    for name, positions in BACKEND_PRIMITIVES.items()
]


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a target string."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _estimator_builds() -> List[type]:
    """Every estimator class that defines its own ``build``."""
    import repro.estimators  # noqa: F401 - registers every estimator
    from repro.estimators.base import SparsityEstimator

    found, pending = [], list(SparsityEstimator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "build" in cls.__dict__ and cls.__module__.startswith("repro.estimators"):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


class Installation:
    """The wrappers :func:`install` put in place; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def default_targets() -> List[Tuple[str, str, Optional[Callable]]]:
    """:data:`TARGETS` plus every estimator's ``build``."""
    return TARGETS + [
        ("estimators.build", f"{cls.__module__}:{cls.__qualname__}.build", None)
        for cls in _estimator_builds()
    ]


def preload() -> None:
    """Import every module a target lives in, so :func:`install` later
    does no importing (and finds every alias already bound)."""
    for _, target, _ in default_targets():
        importlib.import_module(target.partition(":")[0])


def install(recorder: SpanRecorder, targets=None) -> Installation:
    """Wrap every target (default :func:`default_targets`) so calls record
    spans into *recorder*."""
    targets = default_targets() if targets is None else targets
    installation = Installation()
    for layer, target, info in targets:
        owner, attribute, original = _resolve(target)
        name = target.partition(":")[2]
        wrapper = recorder.wrap(original, layer, name, info)
        if isinstance(owner, type):
            installation.replace(owner, attribute, wrapper)
            continue
        # A module function: rebind it wherever a repro module imported it.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    installation.replace(module, key, wrapper)
    return installation


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``.

    Children may nest inside one another or overlap (spans from different
    threads or processes); each instant counts once.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered(children.get(span[ID], ()), span[START], span[END])
        for span in spans
    }


def join_to_operations(
    operations: Sequence[Tuple[int, float, float]], spans: Sequence[list]
) -> List[list]:
    """Assign server spans to the client operations that caused them.

    *operations* are ``(op_id, start, end)`` client round trips from one
    sequential connection, so they do not overlap; a server root span
    belongs to the round trip whose interval contains its start, and every
    descendant inherits its root's operation. Spans outside every round
    trip are dropped. Returns the joined spans (copies, ``OP`` filled).
    """
    ordered = sorted(operations, key=lambda op: op[1])
    starts = [op[1] for op in ordered]
    by_id = {span[ID]: span for span in spans}
    owner: Dict[int, Optional[int]] = {}

    def op_of(span: list) -> Optional[int]:
        if span[ID] in owner:
            return owner[span[ID]]
        if span[PARENT] is not None and span[PARENT] in by_id:
            result = op_of(by_id[span[PARENT]])
        else:
            index = bisect.bisect_right(starts, span[START]) - 1
            result = None
            if index >= 0 and span[START] <= ordered[index][2]:
                result = ordered[index][0]
        owner[span[ID]] = result
        return result

    joined = []
    for span in sorted(spans, key=lambda span: span[ID]):
        op = op_of(span)
        if op is not None:
            copy = list(span)
            copy[OP] = op
            joined.append(copy)
    return joined


def layer_summary(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per layer: total self seconds, outermost call count, and the list of
    info values of outermost calls.

    A call is outermost when its parent belongs to another layer, so a
    wrapped function calling itself (or a sibling of its layer) counts
    once.
    """
    selfs = self_times(spans)
    by_id = {span[ID]: span for span in spans}
    summary: Dict[str, Dict[str, Any]] = defaultdict(
        lambda: {"self": 0.0, "calls": 0, "info": []}
    )
    for span in spans:
        entry = summary[span[LAYER]]
        entry["self"] += selfs[span[ID]]
        parent = by_id.get(span[PARENT])
        if parent is None or parent[LAYER] != span[LAYER]:
            entry["calls"] += 1
            entry["info"].append(span[INFO])
    return summary


def parent_layer_counts(spans: Sequence[list], layer: str, parent_layer: str) -> int:
    """Spans of *layer* whose parent span belongs to *parent_layer*."""
    by_id = {span[ID]: span for span in spans}
    return sum(
        1 for span in spans
        if span[LAYER] == layer and span[PARENT] in by_id
        and by_id[span[PARENT]][LAYER] == parent_layer
    )


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Layer -> the metric reporting its self time (ms per operation).
SELF_MS = {
    "serve.protocol.decode": "serve.protocol.decode_ms",
    "serve.protocol.decode_expr": "serve.protocol.decode_expr_ms",
    "serve.protocol.encode": "serve.protocol.encode_ms",
    "serve.registry.update": "serve.registry.update_ms",
    "core.incremental.apply": "core.incremental.apply_ms",
    "core.incremental.to_matrix": "core.incremental.to_matrix_ms",
    "core.incremental.sketch": "core.incremental.sketch_ms",
    "catalog.memo.invalidate": "catalog.memo.invalidate_ms",
    "catalog.memo.get": "catalog.memo.get_ms",
    "catalog.service": "catalog.service.self_ms",
    "catalog.fingerprint": "catalog.fingerprint_ms",
    "catalog.store.get": "catalog.store.get_ms",
    "ir.dag": "ir.dag_self_ms",
    "ir.evaluate": "ir.evaluate_ms",
    "estimators.build": "estimators.build_ms",
    "estimators.propagate": "estimators.propagate_ms",
    "estimators.estimate_nnz": "estimators.estimate_nnz_ms",
    "core.propagate_product": "core.propagate_product_ms",
    "core.estimate_product_nnz": "core.estimate_product_nnz_ms",
    "optimizer.dp": "optimizer.dp_self_ms",
    "optimizer.flops": "optimizer.flops_ms",
    "router.route": "router.route_self_ms",
    "sparsest.cell": "sparsest.cell_self_ms",
    **{f"backends.{name}": f"backends.{name}_ms" for name in BACKEND_PRIMITIVES},
}

#: Metric -> layer whose outermost calls it counts (per operation).
CALLS = {
    "catalog.fingerprint.calls": "catalog.fingerprint",
    "catalog.memo.gets": "catalog.memo.get",
    "estimators.build_calls": "estimators.build",
    "estimators.propagate_calls": "estimators.propagate",
    "estimators.estimate_nnz_calls": "estimators.estimate_nnz",
    "core.propagate_product.calls": "core.propagate_product",
    "core.estimate_product_nnz.calls": "core.estimate_product_nnz",
    "optimizer.flops_calls": "optimizer.flops",
    **{f"backends.{name}.calls": f"backends.{name}" for name in BACKEND_PRIMITIVES},
}

#: Every per-layer metric :func:`layer_metrics` reports, with its unit.
UNITS = {
    **{metric: "ms" for metric in SELF_MS.values()},
    **{metric: "count" for metric in CALLS},
    **{f"backends.{name}.bytes": "bytes" for name in BACKEND_PRIMITIVES},
    "serve.http_self_ms": "ms",
    "serve.parse_cache.hit_ratio": "ratio",
    "catalog.memo.hit_ratio": "ratio",
    "catalog.store.hit_ratio": "ratio",
    "ir.nodes": "count",
    "optimizer.cells": "count",
    "router.escalations_per_route": "count",
    "router.first_tier_ratio": "ratio",
    "router.tiers_tried": "count",
    "sparsest.truth_hit_ratio": "ratio",
    "trace.op_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.layer_sum_share": "ratio",
    "trace.spans_per_op": "count",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[list],
    operations: Sequence[Tuple[int, str, float, float]],
    wall_seconds: float,
    estimate_kinds: Iterable[str] = ("estimate", "read"),
) -> Dict[str, float]:
    """Per-layer metrics of one traced window, normalised per operation.

    *spans* are the window's spans, each joined to an operation;
    *operations* are ``(op_id, kind, start, end)`` as the benchmark timed
    them (client round trips for serve). Self times are in ms per
    operation and, with ``trace.unattributed_ms``, add up to the window's
    wall time per operation. For serve, the part of a round trip that no
    server span covers is ``serve.http_self_ms``; in-process, an
    operation's own self time is unattributed.
    """
    ops = len(operations) or 1
    per_op = 1e3 / ops
    window = {op_id for op_id, _, _, _ in operations}
    spans = [span for span in spans if span[OP] in window]
    summary = layer_summary(spans)
    by_id = {span[ID]: span for span in spans}
    values: Dict[str, float] = {metric: 0.0 for metric in UNITS}

    named = 0.0
    for layer, entry in summary.items():
        if layer in SELF_MS:
            values[SELF_MS[layer]] = entry["self"] * per_op
            named += entry["self"]
    for metric, layer in CALLS.items():
        values[metric] = summary[layer]["calls"] / ops if layer in summary else 0.0
    for name in BACKEND_PRIMITIVES:
        entry = summary.get(f"backends.{name}")
        values[f"backends.{name}.bytes"] = (
            sum(entry["info"]) / ops if entry else 0.0
        )

    server_roots: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[LAYER] != "op" and span[PARENT] not in by_id:
            server_roots[span[OP]].append((span[START], span[END]))
    if not any(span[LAYER] == "op" for span in spans):
        # Client round trips: the uncovered remainder is HTTP + server glue.
        http = sum(
            (end - start) - covered(server_roots.get(op_id, ()), start, end)
            for op_id, _, start, end in operations
        )
        values["serve.http_self_ms"] = http * per_op
        named += http

    estimates = sum(1 for _, kind, _, _ in operations if kind in estimate_kinds)
    decode_expr = summary.get("serve.protocol.decode_expr")
    if estimates and decode_expr is not None:
        values["serve.parse_cache.hit_ratio"] = 1.0 - decode_expr["calls"] / estimates
    elif estimates and "serve.protocol.decode" in summary:
        values["serve.parse_cache.hit_ratio"] = 1.0
    for layer, metric in (("catalog.memo.get", "catalog.memo.hit_ratio"),
                          ("catalog.store.get", "catalog.store.hit_ratio")):
        if layer in summary:
            hits = summary[layer]["info"]
            values[metric] = _ratio(sum(1 for hit in hits if hit), len(hits))
    if "ir.dag" in summary:
        values["ir.nodes"] = sum(
            info for info in summary["ir.dag"]["info"] if info is not None
        ) / ops
    values["optimizer.cells"] = (
        parent_layer_counts(spans, "core.propagate_product", "optimizer.dp") / ops
    )
    routes = summary["router.route"]["info"] if "router.route" in summary else []
    if routes:
        values["router.escalations_per_route"] = sum(r[0] for r in routes) / len(routes)
        values["router.first_tier_ratio"] = sum(1 for r in routes if r[0] == 0) / len(routes)
        values["router.tiers_tried"] = sum(r[1] for r in routes) / len(routes)
    truths = [span for span in spans if span[NAME] == "true_nnz_of"]
    if truths:
        truth_ids = {span[ID] for span in truths}
        evaluated = sum(
            1 for span in spans
            if span[LAYER] == "ir.evaluate" and span[PARENT] in truth_ids
        )
        values["sparsest.truth_hit_ratio"] = 1.0 - evaluated / len(truths)

    op_seconds = sum(end - start for _, _, start, end in operations)
    values["trace.op_ms"] = op_seconds * per_op
    values["trace.unattributed_ms"] = (wall_seconds - named) * per_op
    values["trace.unattributed_share"] = _ratio(wall_seconds - named, wall_seconds)
    values["trace.layer_sum_share"] = _ratio(named, wall_seconds)
    values["trace.spans_per_op"] = sum(1 for span in spans if span[LAYER] != "op") / ops
    return values

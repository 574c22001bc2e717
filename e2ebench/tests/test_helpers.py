"""Tests for the benchmark's own helpers.

Run from the checkout root: ``python3 -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import common  # noqa: E402
import exprgen  # noqa: E402
import tracing  # noqa: E402
from tracing import END, ID, LAYER, OP, PARENT, START  # noqa: E402


def span(span_id, layer, start, end, parent=None, op=None, name="f", info=None):
    return [span_id, layer, name, start, end, parent, op, info]


# ----------------------------------------------------------------------
# Tail-percentile rule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (5000, 99.0), (902, 99.0), (901, 95.0), (182, 95.0),
    (181, 90.0), (92, 90.0), (91, None), (0, None),
])
def test_tail_percentile_picks_highest_with_ten_beyond(count, expected):
    assert common.tail_percentile(count) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in range(1, 1500, 7):
        values = [float(v) for v in range(count)]
        q = common.tail_percentile(count)
        for candidate in common.TAIL_CANDIDATES:
            cut = common.percentile(values, candidate)
            beyond = sum(1 for v in values if v > cut)
            if candidate == q:
                assert beyond >= common.MIN_BEYOND
                break
            assert beyond < common.MIN_BEYOND
        else:
            assert q is None


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(3).random(257))
    for q in (0, 10, 50, 90, 95, 99, 100):
        assert common.percentile(values, q) == pytest.approx(np.percentile(values, q))


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def test_self_time_with_nested_and_overlapping_children():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 6.0, parent=0),       # overlaps a
        span(3, "c", 2.0, 3.0, parent=1),       # nested in a
        span(4, "d", 9.0, 12.0, parent=0),      # runs past its parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_covered_counts_each_instant_once():
    intervals = [(0.0, 2.0), (1.0, 3.0), (1.5, 2.5), (5.0, 6.0), (7.0, 9.0)]
    assert tracing.covered(intervals, 0.0, 8.0) == pytest.approx(3.0 + 1.0 + 1.0)
    assert tracing.covered([], 0.0, 1.0) == 0.0


def test_layer_summary_counts_recursive_calls_once():
    spans = [
        span(0, "op", 0.0, 10.0, op=0),
        span(1, "x", 1.0, 9.0, parent=0, op=0, info=True),
        span(2, "x", 2.0, 5.0, parent=1, op=0, info=False),
        span(3, "y", 5.0, 6.0, parent=1, op=0),
    ]
    summary = tracing.layer_summary(spans)
    assert summary["x"]["calls"] == 1
    assert summary["x"]["info"] == [True]
    assert summary["x"]["self"] == pytest.approx(8.0 - 1.0)
    assert summary["y"]["calls"] == 1


def test_join_assigns_server_spans_to_round_trips():
    operations = [(7, 0.0, 1.0), (8, 2.0, 3.0)]
    spans = [
        span(0, "svc", 0.2, 0.8),
        span(1, "kernel", 0.3, 0.4, parent=0),
        span(2, "svc", 1.5, 1.6),               # between round trips: dropped
        span(3, "svc", 2.1, 2.9),
    ]
    joined = tracing.join_to_operations(operations, spans)
    assert [(s[ID], s[OP]) for s in joined] == [(0, 7), (1, 7), (3, 8)]


def test_layer_metrics_add_up_to_wall_time():
    operations = [(0, "read", 0.0, 4.0), (1, "read", 5.0, 9.0)]
    spans = [
        span(0, "catalog.service", 1.0, 3.0, op=0),
        span(1, "catalog.memo.get", 1.5, 2.0, parent=0, op=0, info=True),
        span(2, "catalog.service", 6.0, 7.0, op=1),
    ]
    metrics = tracing.layer_metrics(spans, operations, 10.0)
    assert metrics["catalog.service.self_ms"] == pytest.approx(2500.0 / 2)
    assert metrics["catalog.memo.get_ms"] == pytest.approx(250.0)
    assert metrics["serve.http_self_ms"] == pytest.approx(5000.0 / 2)
    assert metrics["catalog.memo.hit_ratio"] == 1.0
    named = (metrics["catalog.service.self_ms"] + metrics["catalog.memo.get_ms"]
             + metrics["serve.http_self_ms"])
    assert named + metrics["trace.unattributed_ms"] == pytest.approx(10.0e3 / 2)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------

def test_wrapper_returns_the_same_value_and_records_nesting():
    recorder = tracing.SpanRecorder()
    inner = recorder.wrap(lambda x: x * 2, "inner", "inner")
    outer = recorder.wrap(lambda x: inner(x) + 1, "outer", "outer")
    with recorder.operation(5, "op"):
        assert outer(20) == 41
    spans = {s[LAYER]: s for s in recorder.finished_spans()}
    assert spans["inner"][PARENT] == spans["outer"][ID]
    assert spans["outer"][PARENT] == spans["op"][ID]
    assert spans["inner"][OP] == 5
    assert spans["op"][START] <= spans["outer"][START] <= spans["inner"][START]
    assert spans["inner"][END] <= spans["outer"][END] <= spans["op"][END]


def test_wrapper_reraises_the_same_exception():
    recorder = tracing.SpanRecorder()
    error = KeyError("missing")

    def fail():
        raise error

    wrapped = recorder.wrap(fail, "layer", "fail")
    with pytest.raises(KeyError) as caught:
        wrapped()
    assert caught.value is error
    [recorded] = recorder.finished_spans()
    assert recorded[END] >= recorded[START]
    assert recorder._stack() == []


def test_install_rebinds_every_alias_and_remove_restores():
    import repro.catalog.fingerprint as fingerprint
    import repro.catalog.service as service
    from repro.ir.nodes import leaf, matmul
    from repro.matrix.random import random_sparse

    original = fingerprint.fingerprint_expr
    expr = matmul(leaf(random_sparse(6, 5, 0.4, seed=1)), leaf(random_sparse(5, 4, 0.4, seed=2)))
    expected = original(expr)
    recorder = tracing.SpanRecorder()
    installation = tracing.install(
        recorder, [("catalog.fingerprint", "repro.catalog.fingerprint:fingerprint_expr", None)]
    )
    try:
        assert service.fingerprint_expr is not original
        assert service.fingerprint_expr is fingerprint.fingerprint_expr
        assert service.fingerprint_expr(expr) == expected
    finally:
        installation.remove()
    assert service.fingerprint_expr is original
    assert fingerprint.fingerprint_expr is original
    assert [s[LAYER] for s in recorder.finished_spans()] == ["catalog.fingerprint"]


def test_default_targets_resolve():
    tracing.preload()
    for layer, target, _ in tracing.default_targets():
        owner, attribute, original = tracing._resolve(target)
        assert callable(original), target
        assert layer in tracing.SELF_MS, layer


# ----------------------------------------------------------------------
# Expression generator
# ----------------------------------------------------------------------

NAMES = [spec[0] for spec in exprgen.LEAF_SPECS]


def test_generator_is_deterministic():
    first = exprgen.ExpressionGenerator(NAMES, seed=4).take(200)
    second = exprgen.ExpressionGenerator(NAMES, seed=4).take(200)
    other = exprgen.ExpressionGenerator(NAMES, seed=5).take(200)
    assert [exprgen.canonical(e) for e in first] == [exprgen.canonical(e) for e in second]
    assert [exprgen.canonical(e) for e in first] != [exprgen.canonical(e) for e in other]


def test_roots_are_distinct_inner_nodes_of_depth_two_to_four():
    exprs = exprgen.ExpressionGenerator(NAMES, seed=9).take(500)
    keys = [exprgen.canonical(e) for e in exprs]
    assert len(set(keys)) == len(keys)

    def depth(node):
        return 0 if "ref" in node else 1 + max(depth(c) for c in node["inputs"])

    for expr in exprs:
        assert "op" in expr and expr["op"] in exprgen.OPS
        assert 2 <= depth(expr) <= 4


def test_subdags_are_shared():
    exprs = exprgen.ExpressionGenerator(NAMES, seed=2).take(100)
    seen, shared = set(), 0
    for expr in exprs:
        for child in expr["inputs"]:
            key = exprgen.canonical(child)
            if "op" in child and key in seen:
                shared += 1
            seen.add(key)
    assert shared > 0


def test_expressions_are_shape_compatible():
    from repro.ir.nodes import leaf
    from repro.serve.protocol import decode_expr

    side = 12
    leaves = {
        name: leaf(exprgen.make_leaf(structure, max(density, 0.1), side, seed=i), name=name)
        for i, (name, structure, density) in enumerate(exprgen.LEAF_SPECS)
    }
    for expr in exprgen.ExpressionGenerator(NAMES, seed=6).take(300):
        decoded = decode_expr(expr, leaves.__getitem__)
        assert decoded.shape == (side, side)


def test_block_update_keeps_shape():
    from repro.core.incremental import IncrementalSketch, apply_update, delta_from_payload

    side = 40
    rng = np.random.default_rng(1)
    incremental = IncrementalSketch(exprgen.make_leaf("uniform", 0.05, side, seed=3))
    for _ in range(5):
        apply_update(incremental, delta_from_payload(exprgen.block_update(rng, side=side)))
    assert incremental.to_matrix().shape == (side, side)

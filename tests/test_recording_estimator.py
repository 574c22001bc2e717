"""Tests for the RecordingEstimator telemetry proxy."""

import pytest

from repro.estimators import BitsetEstimator, make_estimator
from repro.ir import leaf, matmul
from repro.ir.estimate import estimate_root_nnz
from repro.matrix.random import random_sparse
from repro.observability import (
    RecordingCollector,
    RecordingEstimator,
    unwrap_estimator,
    using_collector,
)
from repro.opcodes import Op
from repro.sparsest.runner import EstimationRequest, execute_outcomes


@pytest.fixture
def matrices():
    return (
        random_sparse(60, 40, 0.1, seed=1),
        random_sparse(40, 50, 0.15, seed=2),
    )


class TestTransparency:
    @pytest.mark.parametrize("name", ["mnc", "meta_ac", "density_map"])
    def test_identical_product_estimates(self, name, matrices):
        a, b = matrices
        plain = make_estimator(name)
        wrapped = RecordingEstimator(make_estimator(name))
        plain_nnz = plain.estimate_nnz(
            Op.MATMUL, [plain.build(a), plain.build(b)]
        )
        wrapped_nnz = wrapped.estimate_nnz(
            Op.MATMUL, [wrapped.build(a), wrapped.build(b)]
        )
        assert wrapped_nnz == plain_nnz

    def test_identical_dag_estimates(self, matrices):
        a, b = matrices
        root = matmul(leaf(a, "A"), leaf(b, "B"))
        plain = estimate_root_nnz(root, make_estimator("mnc"))
        wrapped = estimate_root_nnz(
            root, RecordingEstimator(make_estimator("mnc"))
        )
        assert wrapped == plain

    def test_name_and_knobs_delegate(self):
        wrapped = RecordingEstimator(make_estimator("density_map", block_size=64))
        assert wrapped.name == "DMap"
        assert wrapped.block_size == 64

    def test_supports_delegates(self):
        wrapped = RecordingEstimator(make_estimator("layered_graph"))
        assert wrapped.supports(Op.MATMUL)
        assert not wrapped.supports(Op.EWISE_MULT)
        assert not wrapped.supports_propagation(Op.EWISE_ADD)

    def test_proxies_do_not_stack(self):
        inner = make_estimator("mnc")
        double = RecordingEstimator(RecordingEstimator(inner))
        assert double.inner is inner

    def test_unwrap(self):
        inner = make_estimator("bitset")
        wrapped = RecordingEstimator(inner)
        assert unwrap_estimator(wrapped) is inner
        assert unwrap_estimator(inner) is inner
        assert isinstance(unwrap_estimator(wrapped), BitsetEstimator)

    def test_usable_in_sparsest_runner(self):
        wrapped = RecordingEstimator(make_estimator("mnc"))
        request = EstimationRequest(use_case="B1.1", estimator=wrapped, scale=0.02)
        (outcome,) = execute_outcomes([request])
        assert outcome.ok
        assert outcome.estimator == "MNC"
        assert any(call.method == "build" for call in wrapped.calls)


class TestCallLog:
    def test_records_build_estimate_propagate(self, matrices):
        a, b = matrices
        wrapped = RecordingEstimator(make_estimator("mnc"))
        sa, sb = wrapped.build(a), wrapped.build(b)
        nnz = wrapped.estimate_nnz(Op.MATMUL, [sa, sb])
        wrapped.propagate(Op.MATMUL, [sa, sb])

        methods = [call.method for call in wrapped.calls]
        assert methods == ["build", "build", "estimate_nnz", "propagate"]

        build = wrapped.calls[0]
        assert build.operand_shapes == ((60, 40),)
        assert build.operand_nnz == (float(a.nnz),)
        assert build.seconds >= 0.0

        estimate = wrapped.calls[2]
        assert estimate.op == "matmul"
        assert estimate.operand_shapes == ((60, 40), (40, 50))
        assert estimate.result_nnz == pytest.approx(nnz)

    def test_emits_spans_to_active_collector(self, matrices):
        a, b = matrices
        wrapped = RecordingEstimator(make_estimator("mnc"))
        with using_collector(RecordingCollector()) as collector:
            sa, sb = wrapped.build(a), wrapped.build(b)
            wrapped.estimate_nnz(Op.MATMUL, [sa, sb])
            wrapped.propagate(Op.MATMUL, [sa, sb])
        names = {span.name for span in collector.spans}
        assert {"estimator.build", "estimator.estimate",
                "estimator.propagate"} <= names
        build_span = next(
            s for s in collector.spans if s.name == "estimator.build"
        )
        assert build_span.attrs["estimator"] == "MNC"
        assert build_span.attrs["shape"] == (60, 40)

    def test_no_spans_without_collector(self, matrices):
        a, _ = matrices
        wrapped = RecordingEstimator(make_estimator("mnc"))
        wrapped.build(a)  # still logs the call ...
        assert len(wrapped.calls) == 1
        assert wrapped.calls[0].seconds >= 0.0  # ... with real timing

"""Tests for the parallel execution engine and its integration points:
the pool engine itself (repro.parallel.engine), the request-based SparsEst
API, the fuzz engine's chunked fan-out, and the service's batches, which
answer the same whatever ``$REPRO_WORKERS`` says.

The expensive guarantees (workers=4 vs serial bit-identity over the full
suite, the speedup threshold) live in benchmarks/bench_parallel.py; here
we pin the same contracts on small inputs plus the failure-isolation
behavior a benchmark cannot exercise.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.catalog import EstimationService, ServiceRequest, SketchStore
from repro.errors import ReproError
from repro.estimators.mnc import MNCEstimator
from repro.estimators.spec import EstimatorSpec
from repro.ir.nodes import leaf, matmul
from repro.matrix.random import (
    banded_matrix,
    permutation_matrix,
    power_law_columns,
    random_sparse,
    single_nnz_per_row,
)
from repro.observability.collector import RecordingCollector, using_collector
from repro.observability.metrics import (
    METRICS,
    metric_inc,
    record_residual,
)
from repro.parallel.engine import (
    WORKERS_ENV,
    TaskFailure,
    resolve_workers,
    run_tasks,
)
from repro.serve import EstimationServer, MatrixRegistry, ServeClient, start_server_thread
from repro.serve.protocol import decode_expr
from repro.sparsest.runner import (
    EstimationRequest,
    execute,
    execute_outcomes,
    requests_for,
)
from repro.sparsest.usecases import get_use_case
from repro.verify.engine import FuzzEngine


# ----------------------------------------------------------------------
# Module-level task functions (workers must be able to import them).
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _die_on_two(x):
    if x == 2:
        os._exit(13)  # hard death: no exception, no cleanup
    return x


def _bump_metric(x):
    metric_inc("test.pmerge.counter")
    record_residual(
        source="pmerge", estimator="E", workload=f"t{x}", op="op",
        estimate=float(x), truth=float(x),
    )
    return x


def _bump_then_fail(x):
    metric_inc("test.pfail.counter")
    if x == 3:
        raise ValueError("three is right out")
    return x


def _bump_or_die(x):
    if x == 2:
        os._exit(13)
    metric_inc("test.pcrash.counter")
    return x


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_malformed_env_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        assert resolve_workers(None) == 1

    def test_clamps_to_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1


class TestRunTasks:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_in_task_order(self, workers):
        results = run_tasks(_square, list(range(8)), workers=workers)
        assert [r.index for r in results] == list(range(8))
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [i * i for i in range(8)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_becomes_failure_not_raise(self, workers):
        results = run_tasks(_fail_on_three, [1, 2, 3, 4], workers=workers)
        assert [r.ok for r in results] == [True, True, False, True]
        failure = results[2].failure
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "ValueError"
        assert "three" in failure.message

    def test_hard_worker_death_surfaces_as_failure(self):
        # os._exit kills the worker without raising; the pool reports
        # BrokenProcessPool. The engine must convert that into failed
        # results and still return a complete, ordered list — not hang.
        results = run_tasks(_die_on_two, [1, 2, 3, 4], workers=2)
        assert len(results) == 4
        assert any(
            not r.ok and r.failure.kind == "BrokenProcessPool" for r in results
        )

    def test_worker_traces_merge_into_parent(self):
        pool_runs = METRICS.snapshot().counters.get("parallel.pool_runs", 0.0)
        collector = RecordingCollector()
        with using_collector(collector):
            requests = requests_for(["B1.1"], ["mnc", "meta_wc"], scale=0.05)
            execute_outcomes(requests, workers=2)
        names = [span.name for span in collector.spans]
        assert "sparsest.execute" in names
        assert names.count("sparsest.run") == 2  # one per cell, from workers
        assert len(collector.outcomes) == 2
        assert METRICS.snapshot().counters["parallel.pool_runs"] == pool_runs + 1


# ----------------------------------------------------------------------
# Metric merge-back (PR 6): worker deltas fold into the parent registry
# ----------------------------------------------------------------------

class TestMetricMergeBack:
    def _counter(self, name):
        return METRICS.snapshot().counters.get(name, 0.0)

    def test_worker_metric_deltas_merge_in_task_order(self):
        before = self._counter("test.pmerge.counter")
        seen_before = len(METRICS.residuals())
        results = run_tasks(_bump_metric, list(range(4)), workers=2)
        assert all(r.ok for r in results)
        assert self._counter("test.pmerge.counter") - before == 4.0
        # Residual ledger entries arrive in task order — deterministic
        # regardless of which worker finished first.
        tail = METRICS.residuals()[seen_before:]
        assert [r.workload for r in tail if r.source == "pmerge"] == [
            "t0", "t1", "t2", "t3",
        ]

    def test_merged_totals_identical_across_runs(self):
        first = self._counter("test.pmerge.counter")
        run_tasks(_bump_metric, list(range(5)), workers=3)
        second = self._counter("test.pmerge.counter")
        run_tasks(_bump_metric, list(range(5)), workers=3)
        third = self._counter("test.pmerge.counter")
        assert second - first == third - second == 5.0

    def test_failed_tasks_still_ship_their_metrics(self):
        # An in-worker exception is caught as a TaskFailure; the metric
        # delta accumulated before the raise still merges back.
        before = self._counter("test.pfail.counter")
        results = run_tasks(_bump_then_fail, [1, 2, 3, 4], workers=2)
        assert [r.ok for r in results] == [True, True, False, True]
        assert self._counter("test.pfail.counter") - before == 4.0

    def test_crashed_workers_contribute_nothing(self):
        # A hard worker death ships no payload: the merged snapshot is
        # exactly the sum of the tasks that completed (ok or failed),
        # never a corrupt partial state.
        before = self._counter("test.pcrash.counter")
        results = run_tasks(_bump_or_die, [1, 2, 3, 4], workers=2)
        assert len(results) == 4
        merged = self._counter("test.pcrash.counter") - before
        survivors = sum(1 for r in results if r.ok)
        assert merged == float(survivors)
        assert merged < 4.0  # the dead task really contributed nothing

    def test_serial_path_writes_metrics_directly(self):
        before = self._counter("test.pmerge.counter")
        run_tasks(_bump_metric, [7], workers=1)
        assert self._counter("test.pmerge.counter") - before == 1.0


# ----------------------------------------------------------------------
# SparsEst request API
# ----------------------------------------------------------------------

class TestExecuteDeterminism:
    def test_parallel_outcomes_bit_identical_to_serial(self):
        requests = requests_for(
            ["B1.1", "B1.2"], ["mnc", "sampling", "meta_wc"], scale=0.05,
        )
        serial = execute_outcomes(requests, workers=1)
        parallel = execute_outcomes(requests, workers=4)
        assert (
            [o.deterministic_key() for o in serial]
            == [o.deterministic_key() for o in parallel]
        )

    def test_unknown_estimator_fails_without_poisoning_batch(self):
        requests = [
            EstimationRequest(use_case="B1.1", estimator="mnc", scale=0.05),
            EstimationRequest(use_case="B1.1", estimator="no_such", scale=0.05),
        ]
        for workers in (1, 2):
            results = execute(requests, workers=workers)
            assert results[0].ok
            assert not results[1].ok
            assert results[1].outcome.status == "failed"
            assert "no_such" in results[1].error

    def test_instance_requests_never_pooled(self):
        # An estimator instance cannot be reconstructed in a worker; the
        # batch must silently run serially and still produce results.
        request = EstimationRequest(
            use_case="B1.1", estimator=MNCEstimator(), scale=0.05,
        )
        results = execute([request, request], workers=4)
        assert all(r.ok for r in results)

    def test_repetitions_must_be_positive(self):
        with pytest.raises(ValueError, match="repetitions"):
            EstimationRequest(use_case="B1.1", estimator="mnc", repetitions=0)

    def test_estimator_options_forwarded(self):
        request = EstimationRequest(
            use_case="B1.1",
            estimator=EstimatorSpec(name="mnc", options={"use_extensions": False}),
            scale=0.05,
        )
        assert execute([request])[0].ok

    def test_instance_request_matches_named_request(self):
        instance = EstimationRequest(
            use_case=get_use_case("B1.1"), estimator=MNCEstimator(), scale=0.05,
        )
        named = EstimationRequest(use_case="B1.1", estimator="mnc", scale=0.05)
        old, new = execute_outcomes([instance, named])
        assert old.deterministic_key() == new.deterministic_key()


# ----------------------------------------------------------------------
# Service submit: batches answered root by root
# ----------------------------------------------------------------------

class TestServiceSubmit:
    def _exprs(self, count=3):
        mats = [random_sparse(40, 30, 0.15, seed=i) for i in range(count)]
        other = random_sparse(30, 25, 0.2, seed=99)
        return [matmul(leaf(m), leaf(other)) for m in mats]

    def test_submit_dispatches_estimate(self):
        expr = self._exprs(1)[0]
        service = EstimationService()
        answer = service.submit(ServiceRequest.estimate(expr))
        assert answer["nnz"] == service.estimate(expr)["nnz"]

    def test_submit_rejects_unknown_kind(self):
        with pytest.raises(ReproError, match="unknown"):
            EstimationService().submit(ServiceRequest(kind="transmogrify"))

    def test_submit_estimate_requires_single_expr(self):
        with pytest.raises(ReproError):
            EstimationService().submit(ServiceRequest(kind="estimate", exprs=()))

    def test_batch_matches_one_at_a_time(self, tmp_path):
        exprs = self._exprs(3)
        batch = EstimationService(
            store=SketchStore(spill_dir=tmp_path / "batch")
        ).submit(ServiceRequest.batch(exprs))
        single = EstimationService(store=SketchStore(spill_dir=tmp_path / "single"))
        one_by_one = [single.submit(ServiceRequest.estimate(e)) for e in exprs]
        for field in ("nnz", "fingerprint", "cached"):
            assert [a[field] for a in batch] == [a[field] for a in one_by_one]

    def test_parallel_batch_matches_serial(self, tmp_path, monkeypatch):
        """A batch under a parallel worker default answers as a serial one."""
        exprs = self._exprs(3)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = EstimationService(
            store=SketchStore(spill_dir=tmp_path / "serial")
        ).submit(ServiceRequest.batch(exprs))
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = EstimationService(
            store=SketchStore(spill_dir=tmp_path / "parallel")
        ).submit(ServiceRequest.batch(exprs))
        for field in ("nnz", "fingerprint", "cached"):
            assert [a[field] for a in serial] == [a[field] for a in parallel]

    def test_parallel_batch_populates_parent_memo(self, monkeypatch):
        """Under a parallel worker default a batch still fills the
        service's own memo, so the next batch is answered from it."""
        monkeypatch.setenv(WORKERS_ENV, "2")
        exprs = self._exprs(2)
        service = EstimationService()
        service.submit(ServiceRequest.batch(exprs))
        again = service.submit(ServiceRequest.batch(exprs))
        assert all(answer["cached"] for answer in again)


# ----------------------------------------------------------------------
# Batch answers do not depend on $REPRO_WORKERS
# ----------------------------------------------------------------------

#: Leaf recipes of the serving workloads' DAGs (e2ebench/exprgen.py) at
#: 2000 per side: exact, extended and generic Algorithm 1 cases.
_SIDE = 2000
_LEAVES = {
    "U0": lambda: random_sparse(_SIDE, _SIDE, 2e-3, seed=10),
    "U1": lambda: random_sparse(_SIDE, _SIDE, 5e-4, seed=11),
    "U2": lambda: random_sparse(_SIDE, _SIDE, 1e-4, seed=12),
    "P0": lambda: power_law_columns(_SIDE, _SIDE, int(1e-3 * _SIDE**2), seed=13),
    "P1": lambda: power_law_columns(_SIDE, _SIDE, int(2e-4 * _SIDE**2), seed=14),
    "S0": lambda: single_nnz_per_row(_SIDE, _SIDE, seed=15),
    "Q0": lambda: permutation_matrix(_SIDE, seed=16),
    "B0": lambda: banded_matrix(_SIDE, 2),
}


def _wire_dags(count, seed=5):
    """*count* distinct wire DAGs of depth 2-4 over the named leaves, with
    shared subtrees, in the serving workloads' operation mix."""
    rng = np.random.default_rng(seed)
    names = list(_LEAVES)
    ops = ("matmul", "ewise_mult", "ewise_add", "transpose")
    pools = {}

    def node(depth, root=False):
        if depth == 0:
            return {"ref": names[int(rng.integers(len(names)))]}
        pool = pools.setdefault(depth, [])
        if not root and pool and rng.random() < 0.3:
            return pool[int(rng.integers(len(pool)))]
        op = ops[int(rng.choice(4, p=(0.4, 0.2, 0.2, 0.2)))]
        if op == "transpose":
            inputs = [node(depth - 1)]
        else:
            inputs = [node(depth - 1), node(int(rng.integers(depth)))]
            if rng.random() < 0.5:
                inputs.reverse()
        built = {"op": op, "inputs": inputs}
        pool.append(built)
        return built

    roots, seen = [], set()
    while len(roots) < count:
        wire = node(int(rng.integers(2, 5)), root=True)
        if repr(wire) not in seen:
            seen.add(repr(wire))
            roots.append(wire)
    return roots


@pytest.fixture(scope="module")
def batch_workload():
    """Leaves, and a batch of 20 distinct DAGs followed by 4 repeats."""
    matrices = {name: build() for name, build in _LEAVES.items()}
    wires = _wire_dags(20)
    return matrices, wires + wires[:4]


def _reference_answers(matrices, wires):
    """A fresh service's answers to the batch, with $REPRO_WORKERS unset."""
    service = EstimationService()
    registry = MatrixRegistry(service)
    for name, matrix in matrices.items():
        registry.register(name, matrix)
    exprs = [decode_expr(wire, registry.resolve) for wire in wires]
    return service.submit(ServiceRequest.batch(exprs))


class TestBatchDeterminism:
    """A batch under ``REPRO_WORKERS=2`` answers every root exactly as a
    fresh serial service does — in process and over HTTP."""

    FIELDS = ("nnz", "fingerprint", "cached")

    def _assert_same(self, got, want):
        assert len(got) == len(want)
        for index, (a, b) in enumerate(zip(got, want)):
            for field in self.FIELDS:
                assert a[field] == b[field], (index, field, a[field], b[field])

    def test_submitted_batch_ignores_repro_workers(self, batch_workload, monkeypatch):
        matrices, wires = batch_workload
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        want = _reference_answers(matrices, wires)
        assert [r["cached"] for r in want[-4:]] == [True] * 4
        monkeypatch.setenv(WORKERS_ENV, "2")
        got = _reference_answers(matrices, wires)
        self._assert_same(got, want)

    def test_served_batch_ignores_repro_workers(self, batch_workload, monkeypatch):
        matrices, wires = batch_workload
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        want = _reference_answers(matrices, wires)
        monkeypatch.setenv(WORKERS_ENV, "2")
        handle = start_server_thread(EstimationServer(port=0))
        client = ServeClient(handle.host, handle.port)
        try:
            for name, matrix in matrices.items():
                client.register(name, matrix)
            got = client.estimate_batch(wires)
        finally:
            client.close()
            handle.stop()
        self._assert_same(got, want)


# ----------------------------------------------------------------------
# Fuzz engine chunking
# ----------------------------------------------------------------------

class TestFuzzEngineWorkers:
    CELLS = ["mnc:*:*"]

    def test_report_independent_of_worker_count(self):
        def run(workers):
            return FuzzEngine(
                budget=6, seed=3, cell_patterns=self.CELLS, workers=workers,
            ).run()

        serial, parallel = run(1), run(2)
        assert serial.checked == parallel.checked
        assert serial.skipped == parallel.skipped
        assert set(serial.cells) == set(parallel.cells)
        assert serial.summary_rows() == parallel.summary_rows()

    def test_zero_budget_still_lists_cells(self):
        report = FuzzEngine(
            budget=0, seed=0, cell_patterns=self.CELLS, workers=2,
        ).run()
        assert report.cells
        assert report.checked == 0

    def test_chunks_run_in_workers(self):
        # Every chunk must reach a worker: a chunk that fails (say, to
        # pickle) is rerun serially and counted, so these stay at 0.
        def counters():
            snapshot = METRICS.snapshot().counters
            return [snapshot.get(name, 0.0)
                    for name in ("verify.chunk_retries", "parallel.failures")]

        before = counters()
        report = FuzzEngine(
            budget=4, seed=3, cell_patterns=self.CELLS, workers=2,
        ).run()
        assert report.checked > 0
        assert counters() == before

    def test_every_contract_pickles(self):
        from repro.verify.contracts import all_contracts

        for contract in all_contracts():
            clone = pickle.loads(pickle.dumps(contract))
            assert clone.id == contract.id


# ----------------------------------------------------------------------
# Keyword-only estimator construction
# ----------------------------------------------------------------------

class TestKeywordOnlySignatures:
    def test_positional_construction_rejected(self):
        from repro.estimators.bitset import BitsetEstimator
        from repro.estimators.density_map import DensityMapEstimator
        from repro.estimators.hashing import HashEstimator
        from repro.estimators.layered_graph import LayeredGraphEstimator
        from repro.estimators.quadtree import QuadTreeEstimator

        for cls, arg in [
            (MNCEstimator, True),
            (BitsetEstimator, "vectorized"),
            (DensityMapEstimator, 64),
            (QuadTreeEstimator, 64),
            (LayeredGraphEstimator, 2),
            (HashEstimator, 1024),
        ]:
            with pytest.raises(TypeError):
                cls(arg)

    def test_keyword_construction_accepted(self):
        assert MNCEstimator(use_extensions=False, seed=1).name == "MNC"

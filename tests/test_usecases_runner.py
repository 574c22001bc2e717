"""Tests for the SparsEst use cases and the benchmark runner.

Runs at a tiny scale (0.02) so the whole suite stays fast; dataset cache is
redirected into a tmp dir per session.
"""

import math

import pytest

from repro.estimators import make_estimator
from repro.ir.interpreter import evaluate
from repro.opcodes import Op
from repro.sparsest import all_use_cases, get_use_case, use_case_ids
from repro.sparsest.report import format_error, outcomes_table, simple_table
from repro.sparsest.runner import (
    EstimateOutcome,
    clear_truth_cache,
    execute_outcomes,
    requests_for,
    supports_use_case,
    true_nnz_of,
)

SCALE = 0.02


@pytest.fixture(scope="session", autouse=True)
def isolated_cache(tmp_path_factory):
    import os

    os.environ["REPRO_MNC_CACHE"] = str(tmp_path_factory.mktemp("mnc-cache"))
    yield


class TestUseCaseCatalog:
    def test_fifteen_use_cases(self):
        assert len(all_use_cases()) == 15

    def test_categories(self):
        assert len(all_use_cases("Struct")) == 5
        assert len(all_use_cases("Real")) == 5
        assert len(all_use_cases("Chain")) == 5

    def test_ids(self):
        ids = use_case_ids()
        assert ids[0] == "B1.1"
        assert ids[-1] == "B3.5"

    def test_lookup(self):
        assert get_use_case("B2.3").name == "CoRefG"
        with pytest.raises(Exception):
            get_use_case("B9.9")

    def test_build_is_cached(self):
        case = get_use_case("B1.2")
        assert case.build(scale=SCALE, seed=0) is case.build(scale=SCALE, seed=0)

    def test_distinct_seeds_distinct_dags(self):
        case = get_use_case("B1.2")
        assert case.build(scale=SCALE, seed=0) is not case.build(scale=SCALE, seed=1)


class TestUseCaseSemantics:
    @pytest.mark.parametrize("case_id", use_case_ids())
    def test_builds_and_evaluates(self, case_id):
        root = get_use_case(case_id).build(scale=SCALE, seed=0)
        structure = evaluate(root)
        assert structure.shape == root.shape

    def test_b12_structure_preserving(self):
        root = get_use_case("B1.2").build(scale=SCALE, seed=0)
        x_leaf = [l for l in root.leaves() if l.label == "X"][0]
        assert true_nnz_of(root) == x_leaf.matrix.nnz

    def test_b14_fully_dense(self):
        root = get_use_case("B1.4").build(scale=SCALE, seed=0)
        m, n = root.shape
        assert true_nnz_of(root) == m * n

    def test_b15_single_nnz(self):
        root = get_use_case("B1.5").build(scale=SCALE, seed=0)
        assert true_nnz_of(root) == 1

    def test_b33_is_pure_chain(self):
        root = get_use_case("B3.3").build(scale=SCALE, seed=0)
        for node in root.postorder():
            assert node.op in (Op.LEAF, Op.MATMUL)


class TestGroundTruth:
    @pytest.mark.parametrize("case_id", use_case_ids())
    def test_counted_truth_equals_evaluated_root(self, case_id):
        # true_nnz_of counts the root through the exact oracle; it must
        # agree with the interpreter's materialized root.
        clear_truth_cache()
        for seed in range(3):
            root = get_use_case(case_id).build(scale=0.05, seed=seed)
            assert true_nnz_of(root) == float(evaluate(root).nnz)


class TestRunner:
    def test_mnc_exact_on_b11(self):
        (outcome,) = execute_outcomes(requests_for(["B1.1"], ["mnc"], scale=SCALE))
        assert outcome.ok
        assert outcome.relative_error == pytest.approx(1.0)

    def test_unsupported_is_reported(self):
        (outcome,) = execute_outcomes(
            requests_for(["B2.5"], ["layered_graph"], scale=SCALE)
        )
        assert outcome.status == "unsupported"
        assert not outcome.ok
        assert math.isnan(outcome.estimated_nnz)

    def test_bitset_oom_detection(self):
        (outcome,) = execute_outcomes(requests_for(
            ["B2.3"], ["bitset"], scale=SCALE, memory_budget_bytes=1024,
        ))
        assert outcome.status == "oom"

    def test_run_estimators_cartesian(self):
        cases = [get_use_case("B1.2"), get_use_case("B1.3")]
        outcomes = execute_outcomes(
            requests_for(cases, ["meta_ac", "mnc"], scale=SCALE)
        )
        assert len(outcomes) == 4
        assert {o.use_case for o in outcomes} == {"B1.2", "B1.3"}

    def test_supports_use_case_static_check(self):
        lgraph = make_estimator("layered_graph")
        assert supports_use_case(lgraph, get_use_case("B3.3").build(scale=SCALE))
        assert not supports_use_case(lgraph, get_use_case("B3.5").build(scale=SCALE))

    def test_timing_recorded(self):
        (outcome,) = execute_outcomes(requests_for(["B1.2"], ["mnc"], scale=SCALE))
        assert outcome.seconds >= 0


class TestReport:
    def test_format_error(self):
        assert format_error(1.0) == "1.00"
        assert format_error(float("inf")) == "INF"
        assert format_error(float("nan")) == "x"
        assert format_error(123456.0) == "1.23e+05"

    def test_outcomes_table_contains_cells(self):
        outcomes = [
            EstimateOutcome("B1.1", "MNC", 10, 10, 1.0, 0.01, "ok"),
            EstimateOutcome("B1.1", "LGraph", 10, float("nan"), float("inf"),
                            0.0, "unsupported"),
        ]
        table = outcomes_table(outcomes, title="demo")
        assert "demo" in table
        assert "MNC" in table
        assert "1.00" in table
        assert "x" in table

    def test_simple_table_renders(self):
        table = simple_table(
            ["name", "value"], [["a", 1.5], ["b", float("inf")]], title="t"
        )
        assert "name" in table
        assert "INF" in table

"""Integration tests asserting the paper's qualitative claims end-to-end.

These run the full pipeline — dataset generation, DAG construction, ground
truth, synopsis propagation — at reduced scale and check the *shape* of the
paper's results: who is exact, who wins, and by roughly what ordering.
"""

import os

import numpy as np
import pytest

from repro.core.sketch import MNCSketch
from repro.estimators import make_estimator
from repro.matrix.random import random_sparse
from repro.opcodes import Op
from repro.optimizer import (
    enumerate_random_plans,
    optimize_chain_sparse,
    plan_cost_estimated,
)
from repro.estimators.spec import EstimatorSpec
from repro.sparsest import all_use_cases, execute, execute_outcomes, requests_for

SCALE = 0.03


@pytest.fixture(scope="module", autouse=True)
def isolated_cache(tmp_path_factory):
    os.environ["REPRO_MNC_CACHE"] = str(tmp_path_factory.mktemp("cache"))
    yield


def error_of(case_id, estimator_name, **kwargs):
    spec = EstimatorSpec(name=estimator_name, options=kwargs)
    requests = requests_for([case_id], [spec], scale=SCALE)
    (result,) = execute(requests, on_error="raise")
    return result.outcome.relative_error


class TestFigure10Claims:
    """B1 Struct: MNC and Bitset are exact; naive estimators are not."""

    @pytest.mark.parametrize("case_id", ["B1.1", "B1.2", "B1.3", "B1.4", "B1.5"])
    def test_mnc_exact_on_all_b1(self, case_id):
        assert error_of(case_id, "mnc") == pytest.approx(1.0)

    @pytest.mark.parametrize("case_id", ["B1.1", "B1.2", "B1.3", "B1.4", "B1.5"])
    def test_bitset_exact_on_all_b1(self, case_id):
        assert error_of(case_id, "bitset") == pytest.approx(1.0)

    def test_mnc_basic_fails_inner_case(self):
        # Figure 10(f): only the Theorem 3.2 bounds rescue B1.5.
        assert error_of("B1.5", "mnc_basic") > 10.0

    def test_meta_ac_fails_outer_case(self):
        assert error_of("B1.4", "meta_ac") > 10.0

    def test_dmap_fails_outer_case(self):
        assert error_of("B1.4", "density_map", block_size=64) > 10.0


class TestFigure11Claims:
    """B2 Real: MNC exact on B2.1/B2.2/B2.5, small errors on graphs."""

    def test_mnc_exact_on_nlp(self):
        assert error_of("B2.1", "mnc") == pytest.approx(1.0)

    def test_mnc_exact_on_projection(self):
        assert error_of("B2.2", "mnc") == pytest.approx(1.0)

    def test_mnc_exact_on_mask(self):
        assert error_of("B2.5", "mnc") == pytest.approx(1.0)

    def test_mnc_small_error_on_graphs(self):
        assert error_of("B2.3", "mnc") < 1.6
        assert error_of("B2.4", "mnc") < 1.6

    def test_mnc_beats_meta_and_dmap_on_projection(self):
        mnc = error_of("B2.2", "mnc")
        assert mnc < error_of("B2.2", "meta_ac")
        assert mnc < error_of("B2.2", "density_map", block_size=256)

    def test_lgraph_accurate_on_products(self):
        assert error_of("B2.3", "layered_graph", rounds=64) < 1.5


class TestFigure13And14Claims:
    """B3 chains: MNC stays accurate on mixed expressions."""

    def test_reshape_chain_matches_nlp_product(self):
        # B3.1 reshape is sparsity-preserving: MNC stays exact.
        assert error_of("B3.1", "mnc") == pytest.approx(1.0)

    def test_mnc_good_on_matrix_powers(self):
        assert error_of("B3.3", "mnc") < 2.0

    def test_mnc_beats_meta_on_recommender(self):
        assert error_of("B3.4", "mnc") < error_of("B3.4", "meta_ac")

    def test_mnc_beats_meta_and_dmap_on_predicate(self):
        mnc = error_of("B3.5", "mnc")
        assert mnc < error_of("B3.5", "meta_ac")
        assert mnc < error_of("B3.5", "meta_wc") * 1.5

    def test_scale_shift_chain_small_error(self):
        # Figure 15: MNC's final relative error on B3.2 is near 1.
        assert error_of("B3.2", "mnc") < 1.2


class TestSizeClaims:
    """Figure 9: MNC synopsis is orders of magnitude below bitset/dmap."""

    def test_synopsis_size_ordering(self):
        matrix = random_sparse(2000, 2000, 0.01, seed=1)
        sizes = {}
        for name in ("mnc", "bitset", "density_map", "meta_ac"):
            estimator = make_estimator(name)
            sizes[name] = estimator.build(matrix).size_bytes()
        assert sizes["meta_ac"] < sizes["mnc"] < sizes["bitset"]
        assert sizes["mnc"] < 5 * (2000 + 2000) * 8  # O(d)

    def test_bitset_is_64x_smaller_than_fp64(self):
        matrix = random_sparse(512, 512, 0.5, seed=2)
        bitset = make_estimator("bitset").build(matrix)
        assert bitset.size_bytes() == 512 * 512 / 8


class TestOptimizerClaims:
    """Appendix C / Figure 16: the sparsity-aware DP finds near-best plans."""

    def test_sparse_dp_in_bottom_percentile_of_random_plans(self):
        rng = np.random.default_rng(3)
        dims = [(30, 100), (100, 80), (80, 10), (10, 60), (60, 40), (40, 30)]
        sparsities = [0.9, 0.001, 0.5, 0.05, 0.9, 0.1]
        matrices = [
            random_sparse(m, n, s, seed=rng)
            for (m, n), s in zip(dims, sparsities)
        ]
        sketches = [MNCSketch.from_matrix(m) for m in matrices]
        solution = optimize_chain_sparse(sketches, rng=4)
        random_costs = [
            plan_cost_estimated(plan, sketches, rng=5)
            for plan in enumerate_random_plans(len(matrices), 60, rng=6)
        ]
        assert solution.cost <= np.percentile(random_costs, 10) * 1.05


class TestAllEstimatorsRunEverywhereTheyApply:
    def test_full_matrix_of_outcomes(self):
        requests = requests_for(
            all_use_cases(),
            ["meta_ac", "meta_wc", "mnc", "mnc_basic", "density_map", "bitset"],
            scale=SCALE,
        )
        for outcome in execute_outcomes(requests):
            assert outcome.ok, f"{outcome.use_case} x {outcome.estimator}: {outcome.status}"
            assert np.isfinite(outcome.estimated_nnz)

"""Integration: every estimator against every use case it can express.

Complements test_integration_paper_claims (which checks the figure lineup)
by sweeping the remaining estimators — hash, unbiased sampling, quad tree —
through the SparsEst runner and checking the contract: a finite positive
estimate or a clean 'unsupported' outcome, never an exception or a
nonsensical value.
"""

import math
import os

import numpy as np
import pytest

from repro.estimators.spec import EstimatorSpec
from repro.sparsest import all_use_cases, execute_outcomes, requests_for

SCALE = 0.03


@pytest.fixture(scope="module", autouse=True)
def isolated_cache(tmp_path_factory):
    os.environ["REPRO_MNC_CACHE"] = str(tmp_path_factory.mktemp("cache"))
    yield


EXTRA_LINEUP = [
    ("hash", {}),
    ("sampling_unbiased", {}),
    ("quadtree_map", {"leaf_nnz": 64, "min_block": 8}),
    ("exact", {}),
]

QUADTREE = EstimatorSpec(name="quadtree_map", options={"leaf_nnz": 64, "min_block": 8})


class TestContract:
    @pytest.mark.parametrize("name,kwargs", EXTRA_LINEUP)
    def test_all_use_cases(self, name, kwargs):
        cases = all_use_cases()
        spec = EstimatorSpec(name=name, options=kwargs)
        outcomes = execute_outcomes(requests_for(cases, [spec], scale=SCALE))
        for case, outcome in zip(cases, outcomes):
            if outcome.status == "unsupported":
                continue
            assert outcome.ok, f"{case.id} x {name}: {outcome.status}"
            assert outcome.estimated_nnz >= 0
            assert math.isfinite(outcome.estimated_nnz)
            m, n = case.build(scale=SCALE, seed=0).shape
            assert outcome.estimated_nnz <= m * n + 1e-6

    def test_exact_oracle_error_is_one_everywhere(self):
        cases = all_use_cases()
        outcomes = execute_outcomes(requests_for(cases, ["exact"], scale=SCALE))
        for case, outcome in zip(cases, outcomes):
            assert outcome.relative_error == pytest.approx(1.0), case.id


class TestCoverageBoundaries:
    def test_hash_covers_products_only(self):
        products, elementwise, chain = execute_outcomes(
            requests_for(["B2.3", "B2.5", "B3.3"], ["hash"], scale=SCALE)
        )
        assert products.ok
        assert elementwise.status == "unsupported"
        assert chain.status == "unsupported"  # no propagation

    def test_unbiased_sampling_covers_chains(self):
        (chain,) = execute_outcomes(
            requests_for(["B3.3"], ["sampling_unbiased"], scale=SCALE)
        )
        assert chain.ok

    def test_quadtree_covers_elementwise_not_reshape(self):
        mask, reshape_case = execute_outcomes(
            requests_for(["B2.5", "B3.1"], [QUADTREE], scale=SCALE)
        )
        assert mask.ok
        assert reshape_case.status == "unsupported"

    def test_quadtree_reasonable_on_graph_product(self):
        (outcome,) = execute_outcomes(
            requests_for(["B2.4"], [QUADTREE], scale=SCALE)
        )
        assert outcome.ok
        assert outcome.relative_error < 100


class TestSeedStability:
    @pytest.mark.parametrize("case_id", ["B1.1", "B2.3", "B3.5"])
    def test_mnc_stable_across_data_seeds(self, case_id):
        errors = []
        for seed in range(3):
            (outcome,) = execute_outcomes(
                requests_for([case_id], ["mnc"], scale=SCALE, seed=seed)
            )
            assert outcome.ok
            errors.append(outcome.relative_error)
        assert max(errors) < 3.0
        # Error magnitudes stay in one regime across seeds.
        assert max(errors) <= max(1.5 * min(errors), min(errors) + 0.5)

"""Unit tests for the matrix-multiplication-chain optimizer (Appendix C)."""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.sketch import MNCSketch
from repro.errors import PlanError
from repro.matrix.random import diagonal_matrix, random_sparse
from repro.optimizer import (
    dense_matmul_flops,
    enumerate_random_plans,
    left_deep_plan,
    optimize_chain_dense,
    optimize_chain_sparse,
    plan_cost_estimated,
    plan_cost_true,
    plan_to_string,
    random_plan,
    sparse_matmul_flops,
)


class TestCostModels:
    def test_dense_flops(self):
        assert dense_matmul_flops(2, 3, 4) == 24.0

    def test_sparse_flops_formula(self):
        a = random_sparse(10, 8, 0.3, seed=1)
        b = random_sparse(8, 12, 0.3, seed=2)
        h_a, h_b = MNCSketch.from_matrix(a), MNCSketch.from_matrix(b)
        expected = float(h_a.hc @ h_b.hr)
        assert sparse_matmul_flops(h_a, h_b) == expected

    def test_sparse_flops_shape_check(self):
        h_a = MNCSketch.from_matrix(np.ones((2, 3)))
        h_b = MNCSketch.from_matrix(np.ones((2, 3)))
        with pytest.raises(PlanError):
            sparse_matmul_flops(h_a, h_b)

    def test_true_cost_leaf_is_free(self):
        assert plan_cost_true(0, [np.eye(3)]) == 0.0

    def test_estimated_close_to_true_on_uniform(self):
        matrices = [
            random_sparse(40, 30, 0.2, seed=3),
            random_sparse(30, 50, 0.2, seed=4),
            random_sparse(50, 20, 0.2, seed=5),
        ]
        sketches = [MNCSketch.from_matrix(m) for m in matrices]
        plan = left_deep_plan(3)
        true_cost = plan_cost_true(plan, matrices)
        estimated = plan_cost_estimated(plan, sketches, rng=6)
        assert true_cost / 1.5 <= estimated <= true_cost * 1.5

    def test_malformed_plan_rejected(self):
        sketches = [MNCSketch.from_matrix(np.eye(3))]
        with pytest.raises(PlanError):
            plan_cost_estimated((0, 1, 2), sketches)


class TestPlans:
    def test_left_deep(self):
        assert left_deep_plan(1) == 0
        assert left_deep_plan(3) == ((0, 1), 2)
        assert plan_to_string(left_deep_plan(3)) == "((M1 M2) M3)"

    def test_left_deep_requires_positive(self):
        with pytest.raises(PlanError):
            left_deep_plan(0)

    def test_random_plan_covers_all_leaves(self):
        plan = random_plan(6, rng=7)

        def collect(node):
            if isinstance(node, int):
                return [node]
            return collect(node[0]) + collect(node[1])

        assert sorted(collect(plan)) == list(range(6))

    def test_random_plans_vary(self):
        plans = enumerate_random_plans(8, 50, rng=8)
        assert len({plan_to_string(p) for p in plans}) > 5

    def test_plan_to_string_with_names(self):
        assert plan_to_string((0, 1), names=["A", "B"]) == "(A B)"


class TestDenseDP:
    def test_textbook_example(self):
        # CLRS example: dims 30x35, 35x15, 15x5, 5x10, 10x20, 20x25
        shapes = [(30, 35), (35, 15), (15, 5), (5, 10), (10, 20), (20, 25)]
        solution = optimize_chain_dense(shapes)
        assert solution.cost == 15125.0
        assert plan_to_string(solution.plan) == "((M1 (M2 M3)) ((M4 M5) M6))"

    def test_two_matrix_chain(self):
        solution = optimize_chain_dense([(2, 3), (3, 4)])
        assert solution.plan == (0, 1)
        assert solution.cost == 24.0

    def test_single_matrix(self):
        solution = optimize_chain_dense([(5, 5)])
        assert solution.plan == 0
        assert solution.cost == 0.0

    def test_mismatched_chain_rejected(self):
        with pytest.raises(PlanError):
            optimize_chain_dense([(2, 3), (4, 5)])

    def test_empty_chain_rejected(self):
        with pytest.raises(PlanError):
            optimize_chain_dense([])


class TestSparseDP:
    def test_optimal_for_small_chain_by_exhaustion(self):
        matrices = [
            random_sparse(20, 25, 0.3, seed=9),
            random_sparse(25, 15, 0.05, seed=10),
            random_sparse(15, 30, 0.4, seed=11),
            random_sparse(30, 10, 0.2, seed=12),
        ]
        sketches = [MNCSketch.from_matrix(m) for m in matrices]
        solution = optimize_chain_sparse(sketches, rng=13)
        # Exhaustively cost all 5 plans of a 4-chain with the same machinery.
        all_plans = [
            (((0, 1), 2), 3), ((0, (1, 2)), 3), ((0, 1), (2, 3)),
            (0, ((1, 2), 3)), (0, (1, (2, 3))),
        ]
        costs = [plan_cost_estimated(p, sketches, rng=13) for p in all_plans]
        assert solution.cost <= min(costs) * 1.2

    def test_sparse_beats_dense_on_skewed_chain(self):
        # Equal dimensions: the dense DP is indifferent between plans and
        # defaults to left-deep, which multiplies the two dense matrices
        # first. The sparsity-aware DP sees that starting from the
        # ultra-sparse C keeps every intermediate sparse.
        rng = np.random.default_rng(14)
        matrices = [
            random_sparse(40, 40, 0.005, seed=rng),
            random_sparse(40, 40, 0.9, seed=rng),
            random_sparse(40, 40, 0.9, seed=rng),
        ]
        sketches = [MNCSketch.from_matrix(m) for m in matrices]
        dense_solution = optimize_chain_dense([m.shape for m in matrices])
        sparse_solution = optimize_chain_sparse(sketches, rng=15)
        # Equal dimensions: the dense DP ties and keeps its first split,
        # multiplying the two dense matrices first — the bad plan.
        assert dense_solution.plan == (0, (1, 2))
        dense_true = plan_cost_true(dense_solution.plan, matrices)
        sparse_true = plan_cost_true(sparse_solution.plan, matrices)
        assert sparse_solution.plan == ((0, 1), 2)
        assert sparse_true < dense_true

    def test_diagonal_chain_exact_costs(self):
        matrices = [
            diagonal_matrix(30, seed=16),
            random_sparse(30, 20, 0.2, seed=17),
            diagonal_matrix(20, seed=18),
        ]
        sketches = [MNCSketch.from_matrix(m) for m in matrices]
        solution = optimize_chain_sparse(sketches, rng=19)
        assert solution.cost == plan_cost_true(solution.plan, matrices)

    def test_solution_cost_matches_plan_cost(self):
        matrices = [
            random_sparse(25, 20, 0.2, seed=20),
            random_sparse(20, 30, 0.2, seed=21),
            random_sparse(30, 15, 0.2, seed=22),
        ]
        sketches = [MNCSketch.from_matrix(m) for m in matrices]
        solution = optimize_chain_sparse(sketches, rng=23)
        recomputed = plan_cost_estimated(solution.plan, sketches, rng=23)
        assert solution.cost == pytest.approx(recomputed, rel=0.2)


#: Figure 16's dimension cycle; the end-to-end benchmark's chains use it
#: twice and end in 1.
DIMS_CYCLE = (10, 1_000, 10_000, 10_000, 1_000, 10, 10_000, 1, 10_000, 1_000)


def _fig16_chain(seed, length):
    """The first *length* matrices of a chain built the way the end-to-end
    benchmark builds its 20-matrix chains: synthetic sketches, every third
    matrix at a log-uniform sparsity in [1e-4, 1], the others at 0.1."""
    rng = np.random.default_rng(seed)
    dims = (list(DIMS_CYCLE) * 2 + [1])[: length + 1]
    return [
        MNCSketch.synthetic(
            dims[i], dims[i + 1],
            10.0 ** rng.uniform(-4, 0) if i % 3 == 0 else 0.1, rng,
        )
        for i in range(length)
    ]


#: ``(chain seed, length, workers) -> (plan, cost)`` of
#: ``optimize_chain_sparse(chain, rng=chain seed + 100)``, frozen from the
#: DP that allocated every intermediate sketch afresh. Reusing the
#: workspace, the count width and the rounding kernels must not move a
#: bit. Every worker count runs the one serial schedule, so the
#: ``workers=2`` entries equal the ``workers=1`` ones (they held the
#: answers of a per-cell-seeded thread pool until that was removed).
#: (Chain 3 prices its plan at just 2.0, a probabilistic-rounding artifact
#: the DP must still reproduce exactly.)
_FROZEN_SERIAL = {
    (0, 12): (
        "(((M1 M2) (M3 (M4 (M5 (M6 M7))))) (((M8 (M9 M10)) M11) M12))",
        9410453.0,
    ),
    (1, 12): (
        "(((M1 M2) (M3 (M4 (M5 (M6 M7))))) (((M8 (M9 M10)) M11) M12))",
        3228634.0,
    ),
    (2, 9): ("(((M1 M2) (M3 (M4 (M5 (M6 M7))))) (M8 M9))", 3717631.0),
    (3, 20): (
        "(M1 (M2 (M3 (M4 (M5 (M6 (M7 (M8 (M9 (M10 (M11 (M12 (M13 (M14 "
        "(M15 ((((M16 M17) M18) M19) M20))))))))))))))))",
        2.0,
    ),
}
FROZEN_DP_ANSWERS = {
    (seed, length, workers): answer
    for (seed, length), answer in _FROZEN_SERIAL.items()
    for workers in (1, 2)
}


class TestSparseDPWorkspace:
    @pytest.mark.parametrize(
        "chain_seed,length,workers", sorted(FROZEN_DP_ANSWERS),
        ids=lambda value: str(value),
    )
    def test_frozen_answers(self, chain_seed, length, workers):
        solution = optimize_chain_sparse(
            _fig16_chain(chain_seed, length), rng=chain_seed + 100,
            workers=workers,
        )
        plan, cost = FROZEN_DP_ANSWERS[chain_seed, length, workers]
        assert plan_to_string(solution.plan) == plan
        assert solution.cost == cost  # exact, not approx

    def test_repeated_dp_allocates_no_new_intermediates(self):
        """The second DP over the same shapes on one thread reuses the
        first one's workspace: its traced peak is a small fraction of the
        first DP's, which allocated the workspace."""
        chain = _fig16_chain(5, 10)
        peaks = []

        def run():
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                for seed in (1, 2):
                    base, _ = tracemalloc.get_traced_memory()
                    tracemalloc.reset_peak()
                    optimize_chain_sparse(chain, rng=seed, workers=1)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                if started:
                    tracemalloc.stop()

        # A fresh thread starts with an empty workspace, whatever DPs
        # earlier tests ran on this one.
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        first, second = peaks
        assert second < 0.1 * first, (first, second)

    def test_second_dp_leaves_first_solution_alone(self):
        chain = _fig16_chain(0, 12)
        first = optimize_chain_sparse(chain, rng=100, workers=1)
        answer = (plan_to_string(first.plan), first.cost)
        optimize_chain_sparse(_fig16_chain(1, 9), rng=7, workers=1)
        assert (plan_to_string(first.plan), first.cost) == answer
        again = optimize_chain_sparse(chain, rng=100, workers=1)
        assert (plan_to_string(again.plan), again.cost) == answer

    def test_every_worker_count_runs_one_schedule(self):
        """Workers 1, 2 and 3 return identical plans and costs: the DP has
        one schedule, whatever worker count is asked for."""
        for chain_seed, length in sorted(_FROZEN_SERIAL):
            chain = _fig16_chain(chain_seed, length)
            answers = set()
            for workers in (1, 2, 3):
                solution = optimize_chain_sparse(
                    chain, rng=chain_seed + 100, workers=workers
                )
                answers.add((plan_to_string(solution.plan), solution.cost))
            assert answers == {_FROZEN_SERIAL[chain_seed, length]}

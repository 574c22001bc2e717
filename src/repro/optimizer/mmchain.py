"""Matrix-multiplication-chain dynamic programming (paper Appendix C).

``optimize_chain_dense`` is the CLRS textbook O(n^3) DP over dimensions.
``optimize_chain_sparse`` extends it with an extra memo table ``E`` of MNC
sketches for optimal subchains: the cost of joining two subchains is the
sparse multiply-pair count ``E[i][k].hc . E[k+1][j].hr`` (Eq 17), and after
choosing the best split the joined sketch is propagated and memoized —
reusing intermediate sketches across overlapping subproblems exactly as the
paper describes.

The intermediate sketches' count vectors, and the float64 views Algorithm 1
and the Eq 17 scan read, live in one per-thread workspace that grows
geometrically and is reused across calls (docs/PERFORMANCE.md, "Allocation
discipline"): a DP over a 20-matrix chain would otherwise allocate, touch
and hand back to the OS ~18 MB of fresh pages every time it runs.

The DP has one schedule: cells in (span, start) order, each drawing its
rounding randomness from the caller's generator in turn, whatever worker
count is asked for (docs/PARALLEL.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.propagate import propagate_product
from repro.core.rounding import SeedLike, resolve_rng
from repro.core.scratch import ScratchBuffer
from repro.core.sketch import COUNT_DTYPE, MNCSketch
from repro.errors import PlanError
from repro.optimizer.cost import Plan, dense_matmul_flops, sparse_matmul_flops
from repro.parallel.engine import map_values


#: The sparse DP's workspace: every intermediate cell's ``hr``/``hc``
#: (at the sketches' count width) and their float64 views, one slot of
#: ``m + l`` entries per cell.
_CELL_COUNTS = ScratchBuffer(COUNT_DTYPE)
_CELL_COUNTS_F64 = ScratchBuffer(np.float64)


@dataclass(frozen=True)
class ChainSolution:
    """Result of a chain optimization."""

    plan: Plan
    cost: float


def _validate_chain_shapes(shapes: Sequence[tuple[int, int]]) -> None:
    if not shapes:
        raise PlanError("cannot optimize an empty chain")
    for left, right in zip(shapes, shapes[1:]):
        if left[1] != right[0]:
            raise PlanError(f"chain shape mismatch: {left} then {right}")


def _extract_plan(splits: np.ndarray, i: int, j: int) -> Plan:
    if i == j:
        return i
    k = int(splits[i, j])
    return (_extract_plan(splits, i, k), _extract_plan(splits, k + 1, j))


def optimize_chain_dense(shapes: Sequence[tuple[int, int]]) -> ChainSolution:
    """Classic dimensions-only DP: minimizes dense FLOPs ``m*n*l``.

    Args:
        shapes: the chain matrices' shapes, inner dimensions matching.
    """
    _validate_chain_shapes(shapes)
    n = len(shapes)
    costs = np.zeros((n, n), dtype=np.float64)
    splits = np.zeros((n, n), dtype=np.int64)
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            best_cost, best_k = np.inf, i
            for k in range(i, j):
                join = dense_matmul_flops(
                    shapes[i][0], shapes[k][1], shapes[j][1]
                )
                cost = costs[i, k] + costs[k + 1, j] + join
                if cost < best_cost:
                    best_cost, best_k = cost, k
            costs[i, j] = best_cost
            splits[i, j] = best_k
    return ChainSolution(plan=_extract_plan(splits, 0, n - 1), cost=float(costs[0, n - 1]))


def optimize_chain_sparse(
    sketches: Sequence[MNCSketch],
    rng: SeedLike = None,
    workers: Optional[int] = None,
) -> ChainSolution:
    """Sparsity-aware DP over MNC sketches (Appendix C, Eq 17).

    Args:
        sketches: MNC sketches of the chain matrices (build once with
            :meth:`MNCSketch.from_matrix`).
        rng: randomness for probabilistic rounding during sketch
            propagation, consumed cell by cell in (span, start) order.
        workers: accepted like every other entry point's, and ignored:
            each worker count runs the one serial schedule, so plans and
            costs never depend on it. (Evaluating a span's cells from a
            thread pool measured slower on two CPUs, and needed per-cell
            seeds that rounded differently; docs/PARALLEL.md.)

    Intermediate sketches live in the calling thread's workspace (see the
    module docstring); none of them outlives the call.
    """
    _validate_chain_shapes([h.shape for h in sketches])
    generator = resolve_rng(rng)
    n = len(sketches)
    costs = np.zeros((n, n), dtype=np.float64)
    splits = np.zeros((n, n), dtype=np.int64)
    memo: list[list[Optional[MNCSketch]]] = [[None] * n for _ in range(n)]
    for i, sketch in enumerate(sketches):
        memo[i][i] = sketch
    size = sum(
        sketches[i].nrows + sketches[i + span - 1].ncols
        for span in range(2, n + 1) for i in range(n - span + 1)
    )
    counts = _CELL_COUNTS.get(size)
    counts_f64 = _CELL_COUNTS_F64.get(size)
    start = 0
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            best_cost, best_k = np.inf, i
            for k in range(i, j):
                join = sparse_matmul_flops(memo[i][k], memo[k + 1][j])
                cost = costs[i, k] + costs[k + 1, j] + join
                if cost < best_cost:
                    best_cost, best_k = cost, k
            stop = start + sketches[i].nrows + sketches[j].ncols
            memo[i][j] = propagate_product(
                memo[i][best_k], memo[best_k + 1][j], rng=generator,
                out=(counts[start:stop], counts_f64[start:stop]),
            )
            start = stop
            costs[i, j] = best_cost
            splits[i, j] = best_k
    return ChainSolution(plan=_extract_plan(splits, 0, n - 1), cost=float(costs[0, n - 1]))


def _sketch_matrix(matrix) -> MNCSketch:
    """Worker entry point for parallel leaf sketching."""
    return MNCSketch.from_matrix(matrix)


def optimize_chain_matrices(
    matrices: Sequence,
    rng: SeedLike = None,
    catalog: Optional[object] = None,
    workers: Optional[int] = None,
) -> ChainSolution:
    """Sparsity-aware chain DP straight from concrete matrices.

    Args:
        matrices: the chain matrices (matrix-like, inner dims matching).
        rng: randomness for probabilistic rounding during propagation.
        catalog: optional :class:`~repro.catalog.service.EstimationService`
            (or anything with ``sketch_for``); when given, leaf sketches
            come from the catalog — matrices already registered there (or
            optimized before) are never re-sketched.
        workers: process count for sketching leaves in parallel (catalog-less
            runs only — a catalog's store already deduplicates that work).
            ``None`` reads ``$REPRO_WORKERS`` (default 1). Sketch
            construction is deterministic and the DP runs one serial
            schedule, so the worker count never changes results.
    """
    if catalog is not None:
        sketches = [catalog.sketch_for(matrix) for matrix in matrices]
    else:
        sketches = map_values(
            _sketch_matrix, list(matrices), workers=workers,
            label="mmchain.sketch",
        )
    return optimize_chain_sparse(sketches, rng=rng, workers=workers)


def left_deep_plan(n: int) -> Plan:
    """The left-deep plan ``((((M1 M2) M3) ...) Mn)``."""
    if n < 1:
        raise PlanError("chain must contain at least one matrix")
    plan: Plan = 0
    for index in range(1, n):
        plan = (plan, index)
    return plan


def random_plan(n: int, rng: SeedLike = None) -> Plan:
    """A random parenthesization of an ``n``-matrix chain.

    Splits are drawn uniformly at each recursion level; this covers the full
    plan space (every plan has positive probability) without the machinery
    needed for an exactly uniform Catalan draw, which is all Figure 16's
    random baseline requires.
    """
    generator = resolve_rng(rng)

    def build(i: int, j: int) -> Plan:
        if i == j:
            return i
        k = int(generator.integers(i, j))
        return (build(i, k), build(k + 1, j))

    if n < 1:
        raise PlanError("chain must contain at least one matrix")
    return build(0, n - 1)


def enumerate_random_plans(n: int, count: int, rng: SeedLike = None) -> list[Plan]:
    """Draw *count* random plans (duplicates possible, as in a random
    sample of the plan space)."""
    generator = resolve_rng(rng)
    return [random_plan(n, generator) for _ in range(count)]


def plan_to_string(plan: Plan, names: Optional[Sequence[str]] = None) -> str:
    """Render a plan as a parenthesized product, e.g. ``((M1 M2) M3)``."""
    if isinstance(plan, int):
        return names[plan] if names is not None else f"M{plan + 1}"
    left, right = plan
    return f"({plan_to_string(left, names)} {plan_to_string(right, names)})"

"""The in-process workloads: the Appendix C chain optimizer and SparsEst.

``chain_opt`` runs ``optimize_chain_sparse(..., workers=1)`` over seeded
20-matrix chains with Figure 16's dimension cycle; sketches are drawn with
``MNCSketch.synthetic`` during setup. ``sparsest`` runs ``execute()`` one
cell at a time over B1.1-B3.5 with ``mnc`` and ``auto`` (tolerance
:data:`TOLERANCE`), lap after lap at scale :data:`SCALE`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import tracing
from common import geomean, peak_rss_mb

#: Figure 16's dimension cycle; a chain uses it twice and ends in 1.
DIMS_CYCLE = (10, 1_000, 10_000, 10_000, 1_000, 10, 10_000, 1, 10_000, 1_000)
CHAIN_LENGTH = 20
#: Distinct chains per run; operations cycle over them.
CHAINS = 32
#: Operations re-run after the window to check the DP is deterministic.
RECHECKS = 4

CASES = (
    "B1.1", "B1.2", "B1.3", "B1.4", "B1.5",
    "B2.1", "B2.2", "B2.3", "B2.4", "B2.5",
    "B3.1", "B3.2", "B3.3", "B3.4", "B3.5",
)
SCALE = 0.2
TOLERANCE = 0.05


def make_chain(rng: np.random.Generator):
    """One chain of synthetic MNC sketches (every third matrix has a
    log-uniform sparsity in [1e-4, 1], the others 0.1)."""
    from repro.core.sketch import MNCSketch

    dims = list(DIMS_CYCLE) * 2 + [1]
    return [
        MNCSketch.synthetic(
            dims[i], dims[i + 1],
            10.0 ** rng.uniform(-4, 0) if i % 3 == 0 else 0.1, rng,
        )
        for i in range(CHAIN_LENGTH)
    ]


def plan_leaves(plan) -> List[int]:
    if isinstance(plan, (int, np.integer)):
        return [int(plan)]
    left, right = plan
    return plan_leaves(left) + plan_leaves(right)


class InProcessWorkload:
    """What the in-process workloads share: each operation is recorded as
    a root span when traced, and tracing patches this process."""

    records_operations = True
    setups = 3

    def prepare(self, seed: int) -> None:
        pass

    def start_tracing(self, state, recorder):
        return tracing.install(recorder).remove

    def peak_rss_mb(self, state) -> float:
        return peak_rss_mb()

    def teardown(self, state) -> list:
        return []

    def extra_metrics(self, state) -> Dict[str, Tuple[float, str]]:
        return {}


@dataclass
class ChainState:
    seed: int
    chains: list
    results: Dict[int, Tuple[object, float]] = field(default_factory=dict)


class ChainWorkload(InProcessWorkload):
    name = "chain_opt"
    modules = ("repro.optimizer.mmchain", "repro.core.sketch")
    tail_q = 90.0
    rss_ops = 60
    round_ops = CHAINS
    estimate_kinds = ("dp",)

    def setup(self, seed: int, traced: bool) -> ChainState:
        rng = np.random.default_rng(seed)
        return ChainState(seed, [make_chain(rng) for _ in range(CHAINS)])

    def _dp_seed(self, state: ChainState, index: int) -> int:
        return state.seed * 1_000_003 + index

    def _solve(self, state: ChainState, index: int):
        from repro.optimizer import mmchain

        return mmchain.optimize_chain_sparse(
            state.chains[index % CHAINS], rng=self._dp_seed(state, index), workers=1
        )

    def operation(self, state: ChainState, index: int):
        start = time.perf_counter()
        solution = self._solve(state, index)
        end = time.perf_counter()
        ok = (
            sorted(plan_leaves(solution.plan)) == list(range(CHAIN_LENGTH))
            and math.isfinite(solution.cost) and solution.cost >= 0
        )
        state.results[index] = (solution.plan, solution.cost)
        return "dp", ok, start, end

    def verify(self, state: ChainState) -> List[str]:
        done = sorted(state.results)
        picks = sorted({done[int(i)] for i in np.linspace(0, len(done) - 1, RECHECKS)})
        failures = []
        for index in picks:
            solution = self._solve(state, index)
            if (solution.plan, solution.cost) != state.results[index]:
                failures.append(f"dp #{index} is not reproducible from its seed")
        return failures


@dataclass
class SparsestState:
    seed: int
    requests: list
    keys: Dict[int, tuple] = field(default_factory=dict)
    errors: Dict[int, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


class SparsestWorkload(InProcessWorkload):
    name = "sparsest"
    modules = ("repro.sparsest.runner", "repro.sparsest.usecases", "repro.router")
    tail_q = 99.0
    rss_ops = 600
    #: One lap: every use case with both estimators.
    round_ops = 2 * len(CASES)
    estimate_kinds = ("cell",)

    def prepare(self, seed: int) -> None:
        """Generate the datasets into the benchmark's cache directory."""
        from repro.sparsest.usecases import get_use_case

        for case in CASES:
            get_use_case(case).build(scale=SCALE, seed=seed)

    def setup(self, seed: int, traced: bool) -> SparsestState:
        """Build every use case from the (warm) dataset cache and compute
        its ground truth; the timed path then only looks truths up."""
        from repro.sparsest.runner import clear_truth_cache, requests_for, true_nnz_of
        from repro.sparsest.usecases import get_use_case

        clear_truth_cache()
        for case in CASES:
            use_case = get_use_case(case)
            use_case._cache.clear()  # rebuild from the disk cache each setup
            true_nnz_of(use_case.build(scale=SCALE, seed=seed))
        requests = requests_for(
            list(CASES), ["mnc", "auto"], scale=SCALE, seed=seed, tolerance=TOLERANCE
        )
        return SparsestState(seed, requests)

    def operation(self, state: SparsestState, index: int):
        from repro.sparsest import runner

        cell = index % len(state.requests)
        start = time.perf_counter()
        result = runner.execute([state.requests[cell]], workers=1)[0]
        end = time.perf_counter()
        outcome = result.outcome
        ok = result.ok
        if not ok:
            state.failures.append(f"cell {outcome.use_case}/{outcome.estimator}: "
                                  f"{outcome.status} {result.error or ''}")
        key = outcome.deterministic_key()
        if cell not in state.keys:
            state.keys[cell] = key
            state.errors[cell] = outcome.relative_error
            if (ok and outcome.estimator == "MNC" and outcome.use_case.startswith("B1.")
                    and outcome.relative_error != 1.0):
                ok = False
                state.failures.append(
                    f"MNC on {outcome.use_case} is not exact "
                    f"(relative error {outcome.relative_error!r})"
                )
        elif key != state.keys[cell]:
            ok = False
            state.failures.append(f"cell {outcome.use_case}/{outcome.estimator} "
                                  "changed between laps")
        return "cell", ok, start, end

    def verify(self, state: SparsestState) -> List[str]:
        failures = list(state.failures)
        if len(state.keys) < len(state.requests):
            failures.append(f"only {len(state.keys)} of {len(state.requests)} cells ran")
        return failures

    def extra_metrics(self, state: SparsestState) -> Dict[str, Tuple[float, str]]:
        errors = [e for e in state.errors.values() if math.isfinite(e)]
        return {"rel_error_geomean": (geomean(errors) if errors else 0.0, "ratio")}

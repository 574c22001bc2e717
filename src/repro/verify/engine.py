"""Deterministic fuzz loop with failure shrinking.

The engine evaluates the full (estimator x contract x generator) matrix:
for every generator it materializes ``budget`` seeded cases (case identity
depends only on ``(seed, generator, index)``, so cases are shared across
estimator/contract cells and any failure is reproducible from that triple),
then checks every applicable contract for every estimator spec.

Failures are *shrunk* to minimal reproducers before being reported:

1. prune — replace the root with any failing proper sub-DAG;
2. materialize — swap non-leaf children for leaves holding their exact
   structure (reduces any DAG failure to a single-op failure);
3. halve — slice leaf dimensions in half (first/second half per axis);
4. drop — remove individual rows/columns once dimensions are small.

Each accepted candidate strictly shrinks the case, so the loop terminates;
the result is typically a single-op case a few cells in size (the engine
self-test injects a faulty estimator and asserts an <=8x8 reproducer).
"""

from __future__ import annotations

import fnmatch
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.hotpath import validated_scope
from repro.errors import UnsupportedOperationError
from repro.estimators.exact import ExactOracle
from repro.ir import nodes as ir
from repro.ir.nodes import Expr
from repro.matrix.conversion import as_csr
from repro.observability.flight import FLIGHT
from repro.observability.metrics import metric_inc
from repro.observability.trace import timed_span
from repro.opcodes import Op
from repro.parallel.engine import resolve_workers, run_tasks
from repro.verify.contracts import (
    Contract,
    EstimatorSpec,
    all_contracts,
    default_estimator_specs,
)
from repro.verify.generators import (
    Case,
    all_generators,
    exact_structure,
    generate_case,
    retag,
)

MAX_SHRINK_STEPS = 64

#: Dimensions at or below this try single row/column drops while shrinking.
DROP_DIM_LIMIT = 8


@dataclass(frozen=True)
class CellKey:
    """Coordinates of one verification cell."""

    estimator: str
    contract: str
    generator: str

    def __str__(self) -> str:
        return f"{self.estimator}:{self.contract}:{self.generator}"


@dataclass
class ViolationRecord:
    """One contract violation, with its original and shrunk cases."""

    cell: CellKey
    message: str
    case: Case
    shrunk: Case
    shrunk_message: str
    shrink_steps: int
    spec: Optional[EstimatorSpec] = None

    def describe(self) -> str:
        return (f"{self.cell}#{self.case.index}: {self.shrunk_message} "
                f"(shrunk from {self.case.describe()} to "
                f"{self.shrunk.describe()} in {self.shrink_steps} steps)")


@dataclass
class CellResult:
    """Aggregated outcome of one (estimator x contract x generator) cell."""

    cell: CellKey
    checked: int = 0
    skipped: int = 0
    errors: int = 0
    violations: List[ViolationRecord] = field(default_factory=list)

    @property
    def cases(self) -> int:
        return self.checked + self.skipped


@dataclass
class VerifyReport:
    """Outcome of a full engine run."""

    seed: int
    budget: int
    cells: Dict[CellKey, CellResult]

    @property
    def violations(self) -> List[ViolationRecord]:
        found: List[ViolationRecord] = []
        for result in self.cells.values():
            found.extend(result.violations)
        return found

    @property
    def checked(self) -> int:
        return sum(result.checked for result in self.cells.values())

    @property
    def skipped(self) -> int:
        return sum(result.skipped for result in self.cells.values())

    def summary_rows(self) -> List[Tuple[str, str, int, int, int]]:
        """(estimator, contract, checked, skipped, violations) rows,
        aggregated over generators and sorted, for the CLI table."""
        grouped: Dict[Tuple[str, str], List[int]] = {}
        for key, result in self.cells.items():
            bucket = grouped.setdefault((key.estimator, key.contract), [0, 0, 0])
            bucket[0] += result.checked
            bucket[1] += result.skipped
            bucket[2] += len(result.violations)
        return [
            (estimator, contract, checked, skipped, violations)
            for (estimator, contract), (checked, skipped, violations)
            in sorted(grouped.items())
        ]


class FuzzEngine:
    """Differential-testing driver over the contract/generator registries.

    Args:
        specs: estimator specs under test (default: every registered
            estimator).
        contracts: contracts to check (default: the full registry).
        generators: generator names (default: all).
        budget: seeded cases per generator; every applicable
            (estimator x contract) pair checks each case, so one budget
            unit fans out across the whole matrix.
        seed: base seed; the run is a pure function of (seed, budget,
            cell selection).
        shrink: disable to report original failing cases unshrunk.
        cell_patterns: optional ``estimator:contract:generator`` fnmatch
            patterns (e.g. ``"mnc:*:*,*:bounds:adversarial"``) selecting a
            subset of cells.
        workers: process count for fanning budget chunks out; ``None``
            reads ``$REPRO_WORKERS`` (default 1). Case identity depends
            only on ``(seed, generator, index)`` and chunk boundaries are
            deterministic, so the report is identical for any worker
            count. A chunk whose worker dies is re-run serially in the
            parent, so crashes surface as findings, not hangs.
    """

    def __init__(
        self,
        specs: Optional[Sequence[EstimatorSpec]] = None,
        contracts: Optional[Sequence[Contract]] = None,
        generators: Optional[Sequence[str]] = None,
        budget: int = 100,
        seed: int = 0,
        shrink: bool = True,
        cell_patterns: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
    ):
        self.specs = list(specs) if specs is not None else default_estimator_specs()
        self.contracts = list(contracts) if contracts is not None else all_contracts()
        self.generators = list(generators) if generators is not None else all_generators()
        self.budget = int(budget)
        self.seed = int(seed)
        self.shrink = bool(shrink)
        self.cell_patterns = list(cell_patterns) if cell_patterns else []
        self.workers = workers

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _selected(self, key: CellKey) -> bool:
        if not self.cell_patterns:
            return True
        name = str(key)
        return any(fnmatch.fnmatch(name, pat) for pat in self.cell_patterns)

    def run(self) -> VerifyReport:
        """Execute the full matrix and return the aggregated report.

        Fuzz trials are pure functions of ``(seed, generator, index)``, so
        the budget splits into index chunks that run in any process; chunk
        results are merged back in deterministic (generator, index) order,
        making the report independent of the worker count.
        """
        workers = resolve_workers(self.workers)
        chunks = self._chunks(workers)
        cells: Dict[CellKey, CellResult] = {}
        with timed_span(
            "verify.run", budget=self.budget, seed=self.seed, workers=workers
        ):
            if workers <= 1 or len(chunks) <= 1:
                for generator, start, stop in chunks:
                    self._merge(cells, self._run_chunk(generator, range(start, stop)))
            else:
                outcomes = run_tasks(
                    _run_chunk_task,
                    [(self, generator, start, stop)
                     for generator, start, stop in chunks],
                    workers=workers,
                    label="verify.fuzz",
                )
                for (generator, start, stop), outcome in zip(chunks, outcomes):
                    if outcome.ok:
                        chunk_cells = outcome.value
                    else:
                        # The worker died (or the chunk raised outside a
                        # contract check). Re-run the chunk in-process: a
                        # deterministic crash then surfaces with its real
                        # traceback instead of hanging the pool.
                        metric_inc("verify.chunk_retries")
                        chunk_cells = self._run_chunk(
                            generator, range(start, stop)
                        )
                    self._merge(cells, chunk_cells)
        report = VerifyReport(seed=self.seed, budget=self.budget, cells=cells)
        metric_inc("verify.cases", float(report.checked))
        metric_inc("verify.skipped", float(report.skipped))
        metric_inc("verify.violations", float(len(report.violations)))
        for record in report.violations:
            metric_inc(f"verify.violations.{record.cell.contract}")
            FLIGHT.record(
                "violation", str(record.cell),
                detail={"message": record.message[:200]},
            )
        if report.violations:
            # A violated contract is a correctness event, not a crash — note
            # it in the postmortem stream so an armed recorder captures the
            # metrics state that accompanied the violation.
            FLIGHT.trigger_dump(
                "verify_violation", violations=len(report.violations),
            )
        return report

    def _chunks(self, workers: int) -> List[Tuple[str, int, int]]:
        """Deterministic ``(generator, start, stop)`` budget chunks.

        Serial runs use one chunk per generator; parallel runs split each
        generator's budget into up to ``workers`` contiguous index ranges.
        An empty budget still yields one empty chunk per generator so that
        selected cells appear in the report with zero counts.
        """
        if workers <= 1:
            return [(generator, 0, self.budget) for generator in self.generators]
        size = max(1, math.ceil(self.budget / workers))
        chunks: List[Tuple[str, int, int]] = []
        for generator in self.generators:
            starts = list(range(0, self.budget, size)) or [0]
            for start in starts:
                chunks.append((generator, start, min(start + size, self.budget)))
        return chunks

    @staticmethod
    def _merge(cells: Dict[CellKey, CellResult],
               chunk: Dict[CellKey, CellResult]) -> None:
        for key, result in chunk.items():
            target = cells.setdefault(key, CellResult(cell=key))
            target.checked += result.checked
            target.skipped += result.skipped
            target.errors += result.errors
            target.violations.extend(result.violations)

    def _run_chunk(self, generator: str,
                   indices: Iterable[int]) -> Dict[CellKey, CellResult]:
        """Evaluate budget indices *indices* of *generator* over every
        selected (estimator x contract) cell, into a fresh cell table."""
        cells: Dict[CellKey, CellResult] = {}
        keys = {
            (spec, contract): CellKey(spec.name, contract.id, generator)
            for spec in self.specs for contract in self.contracts
        }
        active = {
            pair: key for pair, key in keys.items() if self._selected(key)
        }
        if not active:
            return cells
        for pair, key in active.items():
            cells.setdefault(key, CellResult(cell=key))
        # Contracts always run against fully validated sketches: the fast
        # trusted tier is re-routed through the validating constructor for
        # the duration of the chunk, so fuzzing keeps exercising every
        # invariant check the hot path skips in production.
        with validated_scope():
            self._check_chunk(generator, cells, active, indices)
        return cells

    def _check_chunk(self, generator: str, cells, active, indices) -> None:
        for index in indices:
            case = generate_case(generator, self.seed, index)
            for (spec, contract), key in active.items():
                result = cells[key]
                try:
                    if not contract.applies(spec, case):
                        result.skipped += 1
                        continue
                    message = contract.check(spec, case)
                except UnsupportedOperationError:
                    # An op gap discovered mid-check (e.g. propagation of an
                    # op the estimator only estimates): not a violation.
                    result.skipped += 1
                    continue
                except Exception as crash:
                    # Any other exception IS a finding: record it as a
                    # violation and keep the run alive for the other cells.
                    result.errors += 1
                    message = f"{type(crash).__name__}: {crash}"
                result.checked += 1
                if message is None:
                    continue
                shrunk, shrunk_message, steps = (
                    self.shrink_violation(case, spec, contract)
                    if self.shrink else (case, message, 0)
                )
                result.violations.append(ViolationRecord(
                    cell=key, message=message, case=case, shrunk=shrunk,
                    shrunk_message=shrunk_message, shrink_steps=steps,
                    spec=spec,
                ))

    # ------------------------------------------------------------------
    # Shrinking
    # ------------------------------------------------------------------

    def shrink_violation(
        self, case: Case, spec: EstimatorSpec, contract: Contract
    ) -> Tuple[Case, str, int]:
        """Greedily shrink *case* while it still violates *contract*.

        Returns the smallest failing case found, its violation message, and
        the number of accepted shrink steps.
        """
        current = case
        message = self._violation_of(case, spec, contract) or ""
        steps = 0
        progress = True
        while progress and steps < MAX_SHRINK_STEPS:
            progress = False
            for candidate in self._candidates(current):
                failure = self._violation_of(candidate, spec, contract)
                if failure is None:
                    continue
                current, message = candidate, failure
                steps += 1
                progress = True
                break
        return current, message, steps

    @staticmethod
    def _violation_of(case: Case, spec: EstimatorSpec,
                      contract: Contract) -> Optional[str]:
        try:
            # Shrinking re-evaluates contracts outside _check_chunk's scope;
            # keep candidate evaluation on validated sketches as well
            # (validated_scope is re-entrant, so nesting is free).
            with validated_scope():
                if not contract.applies(spec, case):
                    return None
                return contract.check(spec, case)
        except UnsupportedOperationError:
            return None
        except Exception as unexpected:  # crash counts as a violation too
            return f"{type(unexpected).__name__}: {unexpected}"

    def _candidates(self, case: Case) -> Iterable[Case]:
        root = case.root
        # 1. Prune: any proper non-leaf sub-DAG.
        for node in root.postorder():
            if node is root or node.op is Op.LEAF:
                continue
            yield retag(replace(case, root=node))
        # 2. Materialize: swap non-leaf children for exact-structure leaves.
        if any(child.op is not Op.LEAF for child in root.inputs):
            leaves = tuple(
                child if child.op is Op.LEAF
                else ir.leaf(exact_structure(child), name=child.label)
                for child in root.inputs
            )
            yield retag(replace(
                case, root=Expr(root.op, leaves, params=root.params)
            ))
            return
        if not root.inputs:
            return
        # 3/4. Dimension halving and row/column drops on single-op cases.
        yield from self._dimension_candidates(case)

    def _dimension_candidates(self, case: Case) -> Iterable[Case]:
        root = case.root
        matrices = [child.matrix for child in root.inputs]
        for slot, slices in _dimension_slots(root.op, matrices):
            sizes = {matrices[operand].shape[axis] for operand, axis in slices}
            if len(sizes) != 1:  # pragma: no cover - malformed slot
                continue
            size = sizes.pop()
            if size > 1:
                half = size // 2
                for keep in ((0, half), (half, size)):
                    yield self._rebuild(case, slices, keep)
            if 1 < size <= DROP_DIM_LIMIT:
                for drop in range(size):
                    yield self._rebuild(case, slices, (0, size), drop=drop)

    def _rebuild(self, case: Case, slices: Sequence[Tuple[int, int]],
                 keep: Tuple[int, int], drop: Optional[int] = None) -> Case:
        root = case.root
        matrices = [child.matrix for child in root.inputs]
        for operand, axis in slices:
            matrices[operand] = _slice_axis(matrices[operand], axis, keep, drop)
        params = dict(root.params)
        if root.op is Op.RESHAPE:
            # Keep the reshape target consistent with the shrunk input.
            m, n = matrices[0].shape
            params = {"rows": n, "cols": m}
        children = tuple(
            ir.leaf(matrix, name=child.name)
            for matrix, child in zip(matrices, root.inputs)
        )
        return retag(replace(case, root=Expr(root.op, children, params=params)))


def _run_chunk_task(
    task: Tuple["FuzzEngine", str, int, int]
) -> Dict[CellKey, CellResult]:
    """Worker entry point: one (engine, generator, start, stop) chunk."""
    engine, generator, start, stop = task
    return engine._run_chunk(generator, range(start, stop))


def _dimension_slots(
    op: Op, matrices: Sequence[sp.csr_array]
) -> List[Tuple[str, List[Tuple[int, int]]]]:
    """Shrinkable dimension slots of a single-op case.

    Each slot is a named list of ``(operand index, axis)`` pairs that must
    be sliced together to keep the expression well-shaped (e.g. a product's
    common dimension spans A's columns and B's rows).
    """
    if op is Op.MATMUL:
        return [("m", [(0, 0)]), ("n", [(0, 1), (1, 0)]), ("l", [(1, 1)])]
    if op in (Op.EWISE_ADD, Op.EWISE_MULT):
        return [("m", [(0, 0), (1, 0)]), ("n", [(0, 1), (1, 1)])]
    if op is Op.RBIND:
        return [("ma", [(0, 0)]), ("mb", [(1, 0)]),
                ("n", [(0, 1), (1, 1)])]
    if op is Op.CBIND:
        return [("m", [(0, 0), (1, 0)]), ("na", [(0, 1)]), ("nb", [(1, 1)])]
    if op is Op.DIAG_M2V:
        return [("n", [(0, 0), (0, 1)])]
    if op is Op.DIAG_V2M:
        return [("m", [(0, 0)])]
    if op in (Op.TRANSPOSE, Op.NEQ_ZERO, Op.EQ_ZERO, Op.ROW_SUMS,
              Op.COL_SUMS, Op.RESHAPE):
        return [("m", [(0, 0)]), ("n", [(0, 1)])]
    return []


def _slice_axis(matrix: sp.csr_array, axis: int, keep: Tuple[int, int],
                drop: Optional[int] = None) -> sp.csr_array:
    start, stop = keep
    indices = np.arange(start, stop)
    if drop is not None:
        indices = indices[indices != start + drop]
    if axis == 0:
        return as_csr(matrix[indices, :])
    return as_csr(matrix[:, indices])


# ----------------------------------------------------------------------
# Injected-fault self-test
# ----------------------------------------------------------------------

class FaultyOracle(ExactOracle):
    """An oracle with a deliberate product bug, for engine self-tests.

    It inflates the estimate of any matrix product whose output has more
    than one row *and* more than one column — so the minimal reproducer the
    shrinker should find is a 2x2-output product, well under the 8x8
    acceptance threshold.
    """

    name = "FaultyExact"

    def _estimate_matmul(self, a, b) -> float:
        truth = super()._estimate_matmul(a, b)
        if a.shape[0] > 1 and b.shape[1] > 1:
            return truth + a.shape[0] * b.shape[1]
        return truth


def injected_fault_selftest(budget: int = 24, seed: int = 0) -> ViolationRecord:
    """Prove the shrinker works: fuzz a faulty oracle, return the shrunk find.

    Raises ``AssertionError`` if the engine misses the fault or fails to
    shrink it to a product with an at-most-8x8 output.
    """
    from repro.verify.contracts import get_contract

    spec = EstimatorSpec(name="faulty_exact", factory=FaultyOracle)
    engine = FuzzEngine(
        specs=[spec],
        contracts=[get_contract("exact_oracle")],
        generators=["uniform", "chain"],
        budget=budget,
        seed=seed,
    )
    report = engine.run()
    if not report.violations:
        raise AssertionError("self-test fault was not detected")
    smallest = min(report.violations, key=lambda v: v.shrunk.cells)
    m, n = smallest.shrunk.root.shape
    if m > 8 or n > 8:
        raise AssertionError(
            f"self-test reproducer was not shrunk below 8x8: {m}x{n}"
        )
    return smallest

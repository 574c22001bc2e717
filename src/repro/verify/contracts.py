"""Declarative estimator contracts checked against the exact oracle.

Each :class:`Contract` binds one relational guarantee from the paper (or a
basic sanity requirement) to an executable check. Contracts gate their own
applicability on the estimator's declared
:attr:`~repro.estimators.base.SparsityEstimator.contract_tags` and on the
case's structural tags, so the engine can run the full
(estimator x contract x generator) matrix and skip meaningless cells.

Contract table (see ``docs/VERIFY.md`` for the paper mapping):

=======================  =====================  ==============================
Contract id              Applies to (tag)       Invariant
=======================  =====================  ==============================
``bounds``               everyone               ``0 <= estimate <= cells``
``determinism``          everyone               fresh instance + same seed
                                                => identical estimate
``theorem31_exact``      ``theorem31``          exact when ``max(hr_A) <= 1``
                                                or ``max(hc_B) <= 1``
``wc_upper_bound``       ``upper_bound``        estimate >= truth
``exact_oracle``         ``exact``              estimate == truth
``sampling_lower_bound`` ``lower_bound``        estimate <= truth (products)
``unbiased_mean``        ``unbiased``           trial mean near truth
``dm_block_consistency`` ``block_consistent``   leaf block counts match matrix
``theorem32_containment`` ``theorem32``         lower <= truth <= upper
``interval_containment`` ``theorem32``          interval ordered, contains the
                                                point; exact => equals truth
``propagation_consistency`` ``sketch``          propagated sketch == sketch of
                                                materialized result
``sketch_roundtrip``     ``sketch``             serialize/deserialize is
                                                bit-identical
``incremental_equals_rebuild`` ``sketch``       sketch patched by seeded
                                                deltas == from-scratch rebuild
``backends_agree``       everyone               numpy, the uncompiled kernels
                                                and numba (where it imports)
                                                return the byte-identical
                                                estimate
=======================  =====================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.intervals import estimate_product_interval
from repro.core.estimate import (
    product_nnz_lower_bound,
    product_nnz_upper_bound,
)
from repro.core.serialize import sketch_from_arrays, sketch_to_arrays
from repro.core.sketch import MNCSketch
from repro.errors import UnsupportedOperationError
from repro.estimators.base import SparsityEstimator, make_estimator
from repro.ir.estimate import estimate_root_nnz
from repro.observability.metrics import record_residual
from repro.observability.trace import timed_span
from repro.opcodes import Op
from repro.verify.generators import Case, exact_structure

#: Absolute slack added to every float comparison.
ABS_TOL = 1e-6


@dataclass(frozen=True)
class EstimatorSpec:
    """Recreatable description of an estimator under test.

    Contracts never hold on to estimator *instances*: several checks (the
    determinism and repeated-trial ones) need fresh, identically-seeded
    instances, and corpus reproducers need a JSON-serializable identity.
    """

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    factory: Optional[Callable[[], SparsityEstimator]] = None

    def make(self, seed: Optional[int] = None) -> SparsityEstimator:
        """Instantiate the estimator (optionally overriding its seed)."""
        if self.factory is not None:
            return self.factory()
        kwargs = dict(self.kwargs)
        if seed is not None:
            kwargs["seed"] = seed
        return make_estimator(self.name, **kwargs)

    @property
    def tags(self) -> frozenset:
        return self.make().contract_tags

    def __str__(self) -> str:
        return self.name


def default_estimator_specs(
    names: Optional[Sequence[str]] = None,
) -> list[EstimatorSpec]:
    """Specs for the given registry *names* (default: every estimator)."""
    from repro.estimators import available_estimators

    return [EstimatorSpec(name) for name in (names or available_estimators())]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def case_supported(estimator: SparsityEstimator, case: Case) -> bool:
    """Whether *estimator* can evaluate the whole case DAG.

    Interior nodes need synopsis propagation; the root only needs direct
    estimation (mirroring :func:`repro.ir.estimate.estimate_root_nnz`).
    """
    for node in case.root.postorder():
        if node.op is Op.LEAF:
            continue
        if node is case.root:
            if not estimator.supports(node.op):
                return False
        elif not estimator.supports_propagation(node.op):
            return False
    return True


def estimate_case(estimator: SparsityEstimator, case: Case) -> float:
    """The estimator's non-zero estimate for the case root."""
    return float(estimate_root_nnz(case.root, estimator))


def _measured_estimate(spec: EstimatorSpec, case: Case) -> Tuple[float, float]:
    """``(truth, estimate)`` for a relational check, with the pair logged
    to the accuracy residual ledger.

    Every relational contract computes both values anyway, so fuzz runs
    double as accuracy telemetry: each checked cell contributes one
    ``source="verify"`` residual tagged with its generator coordinate and
    root opcode.
    """
    truth = case.truth_nnz()
    with timed_span("verify.estimate", estimator=spec.name) as span:
        estimate = estimate_case(spec.make(), case)
    record_residual(
        source="verify",
        estimator=spec.name,
        workload=f"{case.generator}#{case.index}",
        op=case.root.op.value,
        estimate=estimate,
        truth=truth,
        seconds=span.seconds or 0.0,
    )
    return truth, estimate


def _leaf_sketches(case: Case, with_extensions: bool = True) -> list[MNCSketch]:
    return [
        MNCSketch.from_matrix(node.matrix, with_extensions=with_extensions)
        for node in case.root.inputs
    ]


def _tol(truth: float) -> float:
    return ABS_TOL + 1e-9 * abs(truth)


# ----------------------------------------------------------------------
# Contract registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Contract:
    """One verifiable estimator invariant.

    Attributes:
        id: stable slug used in cell names and corpus entries.
        description: one-line human summary.
        paper_ref: theorem/equation/section the invariant comes from.
        applies: ``(spec, case) -> bool`` applicability gate. Cells where
            this is false count as *skipped*, never as violations.
        check: ``(spec, case) -> Optional[str]`` — ``None`` when the
            invariant holds, a violation message otherwise.
    """

    id: str
    description: str
    paper_ref: str
    applies: Callable[[EstimatorSpec, Case], bool]
    check: Callable[[EstimatorSpec, Case], Optional[str]]


CONTRACTS: Dict[str, Contract] = {}


def register_contract(contract: Contract) -> Contract:
    if contract.id in CONTRACTS:  # pragma: no cover - registration guard
        raise ValueError(f"duplicate contract id {contract.id!r}")
    CONTRACTS[contract.id] = contract
    return contract


def all_contracts() -> list[Contract]:
    """Every registered contract, sorted by id."""
    return [CONTRACTS[key] for key in sorted(CONTRACTS)]


def get_contract(contract_id: str) -> Contract:
    """Look up a contract by id."""
    try:
        return CONTRACTS[contract_id]
    except KeyError:
        raise ValueError(
            f"unknown contract {contract_id!r}; available: {sorted(CONTRACTS)}"
        ) from None


# ----------------------------------------------------------------------
# Universal contracts
# ----------------------------------------------------------------------

def _applies_supported(spec: EstimatorSpec, case: Case) -> bool:
    return case_supported(spec.make(), case)


def _check_bounds(spec: EstimatorSpec, case: Case) -> Optional[str]:
    estimate = estimate_case(spec.make(), case)
    if not np.isfinite(estimate):
        return f"estimate is not finite: {estimate}"
    if estimate < -ABS_TOL:
        return f"negative estimate {estimate:.6g}"
    ceiling = case.cells * (1.0 + 1e-9) + ABS_TOL
    if estimate > ceiling:
        return (f"estimate {estimate:.6g} exceeds the {case.cells}-cell "
                f"output")
    return None


register_contract(Contract(
    id="bounds",
    description="estimates are finite and inside [0, m*n]",
    paper_ref="Section 1 (sparsity is a fraction of cells)",
    applies=_applies_supported,
    check=_check_bounds,
))


def _applies_determinism(spec: EstimatorSpec, case: Case) -> bool:
    # Two full evaluations per case; sub-sample the stream to keep the
    # default budget fast while still covering every opcode over time.
    return case.index % 3 == 0 and case_supported(spec.make(), case)


def _check_determinism(spec: EstimatorSpec, case: Case) -> Optional[str]:
    first = estimate_case(spec.make(), case)
    second = estimate_case(spec.make(), case)
    if first != second and not (np.isnan(first) and np.isnan(second)):
        return (f"fresh identically-seeded instances disagree: "
                f"{first!r} vs {second!r}")
    return None


register_contract(Contract(
    id="determinism",
    description="fresh instances with the same seed estimate identically",
    paper_ref="implementation requirement (reproducible propagation rounding)",
    applies=_applies_determinism,
    check=_check_determinism,
))


# ----------------------------------------------------------------------
# Relational contracts against the oracle
# ----------------------------------------------------------------------

def _applies_theorem31(spec: EstimatorSpec, case: Case) -> bool:
    if "theorem31" not in spec.tags:
        return False
    if "matmul" not in case.tags or "single_op" not in case.tags:
        return False
    a, b = (node.matrix for node in case.root.inputs)
    h_a = MNCSketch.from_matrix(a, with_extensions=False)
    h_b = MNCSketch.from_matrix(b, with_extensions=False)
    return h_a.max_hr <= 1 or h_b.max_hc <= 1


def _check_theorem31(spec: EstimatorSpec, case: Case) -> Optional[str]:
    truth, estimate = _measured_estimate(spec, case)
    if abs(estimate - truth) > _tol(truth):
        return (f"Theorem 3.1 case (max(hr)<=1 or max(hc)<=1) must be exact: "
                f"estimate {estimate:.6g} != truth {truth:.6g}")
    return None


register_contract(Contract(
    id="theorem31_exact",
    description="MNC products are exact when max(hr_A)<=1 or max(hc_B)<=1",
    paper_ref="Theorem 3.1",
    applies=_applies_theorem31,
    check=_check_theorem31,
))


def _applies_upper_bound(spec: EstimatorSpec, case: Case) -> bool:
    return ("upper_bound" in spec.tags and "single_op" in case.tags
            and case_supported(spec.make(), case))


def _check_upper_bound(spec: EstimatorSpec, case: Case) -> Optional[str]:
    truth, estimate = _measured_estimate(spec, case)
    if estimate < truth - _tol(truth):
        return (f"worst-case estimate {estimate:.6g} under-estimates "
                f"truth {truth:.6g}")
    return None


register_contract(Contract(
    id="wc_upper_bound",
    description="worst-case metadata estimates never fall below the truth",
    paper_ref="Eq 2 (E_wc upper bound)",
    applies=_applies_upper_bound,
    check=_check_upper_bound,
))


def _applies_exact(spec: EstimatorSpec, case: Case) -> bool:
    return "exact" in spec.tags and case_supported(spec.make(), case)


def _check_exact(spec: EstimatorSpec, case: Case) -> Optional[str]:
    truth, estimate = _measured_estimate(spec, case)
    if abs(estimate - truth) > _tol(truth):
        return (f"exact estimator drifted: estimate {estimate:.6g} != "
                f"truth {truth:.6g}")
    return None


register_contract(Contract(
    id="exact_oracle",
    description="estimators tagged exact agree with the materialized truth",
    paper_ref="Eq 3 (boolean matrix product is exact)",
    applies=_applies_exact,
    check=_check_exact,
))


def _applies_lower_bound(spec: EstimatorSpec, case: Case) -> bool:
    return ("lower_bound" in spec.tags and "matmul" in case.tags
            and "single_op" in case.tags)


def _check_lower_bound(spec: EstimatorSpec, case: Case) -> Optional[str]:
    truth, estimate = _measured_estimate(spec, case)
    if estimate > truth + _tol(truth):
        return (f"biased sampling must lower-bound products: "
                f"estimate {estimate:.6g} > truth {truth:.6g}")
    return None


register_contract(Contract(
    id="sampling_lower_bound",
    description="the biased sampling estimator lower-bounds product nnz",
    paper_ref="Eq 5 (largest sampled outer product)",
    applies=_applies_lower_bound,
    check=_check_lower_bound,
))


#: Trials for the in-engine mean test (the rigorous >=200-trial version
#: lives in tests/test_sampling_unbiased_stats.py under the `slow` marker).
MEAN_TRIALS = 20


def _applies_unbiased(spec: EstimatorSpec, case: Case) -> bool:
    if "unbiased" not in spec.tags or spec.factory is not None:
        return False
    if "matmul" not in case.tags or "single_op" not in case.tags:
        return False
    if "zero_dim" in case.tags or case.index % 10 != 0:
        return False
    # Eq 16 is unbiased under its sampling model: outer products drawn from
    # an empirical distribution, combined with the *independence*-based
    # probabilistic-union rule. The adversarial generator deliberately
    # breaks that model (duplicate/correlated operand structure), where no
    # fixed confidence band is meaningful — see docs/VERIFY.md.
    if case.generator == "adversarial":
        return False
    # The mean test needs enough slices for the empirical distribution to
    # be meaningful; tiny common dimensions make single-draw variance huge.
    return case.root.inputs[0].shape[1] >= 8


def _check_unbiased(spec: EstimatorSpec, case: Case) -> Optional[str]:
    truth = case.truth_nnz()
    trials = np.array([
        estimate_case(spec.make(seed=1_000_003 * case.index + t), case)
        for t in range(MEAN_TRIALS)
    ])
    mean = float(trials.mean())
    stderr = float(trials.std(ddof=1) / np.sqrt(MEAN_TRIALS)) if MEAN_TRIALS > 1 else 0.0
    # Smoke-level band: 6 standard errors plus model slack. This catches a
    # grossly biased implementation, not subtle model error (the paper's
    # estimator is unbiased under its sampling model, not universally).
    band = max(6.0 * stderr, 0.35 * truth, 3.0)
    if abs(mean - truth) > band:
        return (f"trial mean {mean:.6g} of {MEAN_TRIALS} seeds strays from "
                f"truth {truth:.6g} by more than {band:.6g}")
    return None


register_contract(Contract(
    id="unbiased_mean",
    description="unbiased sampling trial means track the true product nnz",
    paper_ref="Appendix A, Eq 16",
    applies=_applies_unbiased,
    check=_check_unbiased,
))


def _applies_block_consistency(spec: EstimatorSpec, case: Case) -> bool:
    return "block_consistent" in spec.tags


def _check_block_consistency(spec: EstimatorSpec, case: Case) -> Optional[str]:
    estimator = spec.make()
    for node in case.root.leaves():
        synopsis = estimator.build(node.matrix)
        density = synopsis.density
        if density.size and (density.min() < -ABS_TOL
                             or density.max() > 1.0 + ABS_TOL):
            return (f"block densities outside [0, 1] for leaf "
                    f"{node.shape}: [{density.min()}, {density.max()}]")
        total = float(synopsis.block_counts().sum())
        nnz = float(node.matrix.nnz)
        if abs(total - nnz) > _tol(nnz):
            return (f"leaf {node.shape}: block counts sum to {total:.6g} "
                    f"but the matrix holds {nnz:.6g} non-zeros")
        block = synopsis.block
        csr = node.matrix
        grid = synopsis.block_counts()
        for bi in range(grid.shape[0]):
            for bj in range(grid.shape[1]):
                piece = csr[bi * block:(bi + 1) * block,
                            bj * block:(bj + 1) * block]
                if abs(float(grid[bi, bj]) - piece.nnz) > ABS_TOL:
                    return (f"leaf {node.shape} block ({bi},{bj}): synopsis "
                            f"count {grid[bi, bj]:.6g} != actual {piece.nnz}")
    return None


register_contract(Contract(
    id="dm_block_consistency",
    description="density-map leaf synopses reproduce per-block counts",
    paper_ref="Eq 4 (block density map)",
    applies=_applies_block_consistency,
    check=_check_block_consistency,
))


def _applies_theorem32(spec: EstimatorSpec, case: Case) -> bool:
    return ("theorem32" in spec.tags and "matmul" in case.tags
            and "single_op" in case.tags)


def _check_theorem32(spec: EstimatorSpec, case: Case) -> Optional[str]:
    truth = case.truth_nnz()
    h_a, h_b = _leaf_sketches(case)
    lower = float(product_nnz_lower_bound(h_a, h_b))
    upper = float(product_nnz_upper_bound(h_a, h_b))
    if lower > truth + _tol(truth):
        return f"lower bound {lower:.6g} exceeds truth {truth:.6g}"
    if upper < truth - _tol(truth):
        return f"upper bound {upper:.6g} falls below truth {truth:.6g}"
    return None


register_contract(Contract(
    id="theorem32_containment",
    description="the sketch product bounds contain the true nnz",
    paper_ref="Theorem 3.2",
    applies=_applies_theorem32,
    check=_check_theorem32,
))


def _check_interval(spec: EstimatorSpec, case: Case) -> Optional[str]:
    truth = case.truth_nnz()
    h_a, h_b = _leaf_sketches(case)
    interval = estimate_product_interval(h_a, h_b)
    tol = _tol(max(truth, interval.upper))
    if not (-tol <= interval.lower <= interval.upper + tol):
        return (f"interval is not ordered: [{interval.lower:.6g}, "
                f"{interval.upper:.6g}]")
    if interval.upper > case.cells * (1.0 + 1e-9) + ABS_TOL:
        return (f"interval upper {interval.upper:.6g} exceeds the "
                f"{case.cells}-cell output")
    if not (interval.lower - tol <= interval.estimate <= interval.upper + tol):
        return (f"interval [{interval.lower:.6g}, {interval.upper:.6g}] "
                f"does not contain its own point {interval.estimate:.6g}")
    if interval.exact:
        if interval.width > tol:
            return f"exact interval has width {interval.width:.6g}"
        if abs(interval.estimate - truth) > _tol(truth):
            return (f"exact-flagged interval at {interval.estimate:.6g} "
                    f"misses truth {truth:.6g}")
    return None


register_contract(Contract(
    id="interval_containment",
    description="product confidence intervals are ordered, bounded, and "
                "collapse onto the truth in exact cases",
    paper_ref="core.intervals (paper future work #2)",
    applies=_applies_theorem32,
    check=_check_interval,
))


#: Ops whose MNC propagation rules are exact sketch transformations.
DETERMINISTIC_PROPAGATION_OPS = frozenset({
    Op.TRANSPOSE, Op.RBIND, Op.CBIND, Op.NEQ_ZERO, Op.EQ_ZERO,
    Op.ROW_SUMS, Op.COL_SUMS, Op.DIAG_V2M,
})


def _applies_propagation(spec: EstimatorSpec, case: Case) -> bool:
    return ("sketch" in spec.tags and "single_op" in case.tags
            and case.root.op in DETERMINISTIC_PROPAGATION_OPS)


def _check_propagation(spec: EstimatorSpec, case: Case) -> Optional[str]:
    estimator = spec.make()
    children = [estimator.build(node.matrix) for node in case.root.inputs]
    propagated = estimator.propagate(
        case.root.op, children, **case.root.params
    ).sketch
    scratch = MNCSketch.from_matrix(exact_structure(case.root))
    if propagated.shape != scratch.shape:
        return (f"propagated shape {propagated.shape} != materialized "
                f"shape {scratch.shape}")
    if not np.array_equal(propagated.hr, scratch.hr):
        return (f"{case.root.op.value}: propagated hr {propagated.hr.tolist()} "
                f"!= from-scratch hr {scratch.hr.tolist()}")
    if not np.array_equal(propagated.hc, scratch.hc):
        return (f"{case.root.op.value}: propagated hc {propagated.hc.tolist()} "
                f"!= from-scratch hc {scratch.hc.tolist()}")
    return None


register_contract(Contract(
    id="propagation_consistency",
    description="deterministic sketch propagation matches from-scratch "
                "construction on the materialized result",
    paper_ref="Eq 14 (exact reorganizations)",
    applies=_applies_propagation,
    check=_check_propagation,
))


def _applies_roundtrip(spec: EstimatorSpec, case: Case) -> bool:
    return "sketch" in spec.tags and case.index % 5 == 0


def _check_roundtrip(spec: EstimatorSpec, case: Case) -> Optional[str]:
    for node in case.root.leaves():
        original = MNCSketch.from_matrix(node.matrix)
        restored = sketch_from_arrays(sketch_to_arrays(original))
        for field_name in ("hr", "hc", "her", "hec"):
            left = getattr(original, field_name)
            right = getattr(restored, field_name)
            if (left is None) != (right is None):
                return f"{field_name} presence changed across round-trip"
            if left is not None and not np.array_equal(left, right):
                return f"{field_name} not bit-identical across round-trip"
        if (original.shape != restored.shape
                or original.fully_diagonal != restored.fully_diagonal
                or original.exact != restored.exact):
            return "sketch metadata changed across round-trip"
    return None


register_contract(Contract(
    id="sketch_roundtrip",
    description="sketch serialization round-trips bit-identically",
    paper_ref="core.serialize (distributed sketch shipping)",
    applies=_applies_roundtrip,
    check=_check_roundtrip,
))


#: Seeded deltas applied per leaf in the incremental contract.
INCREMENTAL_STEPS = 4

#: Stream key mixed into the delta rng so the update sequence is a pure
#: function of (case.seed, case.index, leaf position) — reproducible from
#: a corpus entry that records only those coordinates.
_INCREMENTAL_STREAM = 0x696E6372  # "incr"


def _applies_incremental(spec: EstimatorSpec, case: Case) -> bool:
    return "sketch" in spec.tags


def _sketch_mismatch(patched: MNCSketch, rebuilt: MNCSketch) -> Optional[str]:
    if patched.shape != rebuilt.shape:
        return f"shape {patched.shape} != rebuilt shape {rebuilt.shape}"
    for field_name in ("hr", "hc", "her", "hec"):
        left = getattr(patched, field_name)
        right = getattr(rebuilt, field_name)
        if (left is None) != (right is None):
            return (f"{field_name} presence diverged: patched "
                    f"{'set' if left is not None else 'absent'}, rebuilt "
                    f"{'set' if right is not None else 'absent'}")
        if left is not None and not np.array_equal(left, right):
            return (f"{field_name} diverged: patched {left.tolist()} != "
                    f"rebuilt {right.tolist()}")
    if patched.fully_diagonal != rebuilt.fully_diagonal:
        return (f"fully_diagonal diverged: patched {patched.fully_diagonal} "
                f"!= rebuilt {rebuilt.fully_diagonal}")
    if patched.exact != rebuilt.exact:
        return f"exact diverged: patched {patched.exact} != rebuilt {rebuilt.exact}"
    return None


def _check_incremental(spec: EstimatorSpec, case: Case) -> Optional[str]:
    from repro.core.estimate import estimate_product_nnz
    from repro.core.incremental import (
        IncrementalSketch,
        apply_update,
        random_deltas,
    )

    for position, node in enumerate(case.root.leaves()):
        rng = np.random.default_rng(
            [case.seed & 0x7FFFFFFF, _INCREMENTAL_STREAM, case.index, position]
        )
        incremental = IncrementalSketch(node.matrix)
        deltas = random_deltas(
            rng, incremental.shape, steps=INCREMENTAL_STEPS
        )
        for delta in deltas:
            apply_update(incremental, delta)
        patched = incremental.sketch()
        rebuilt = MNCSketch.from_matrix(incremental.to_matrix())
        mismatch = _sketch_mismatch(patched, rebuilt)
        if mismatch is not None:
            kinds = ",".join(type(delta).__name__ for delta in deltas)
            return f"leaf {position} after [{kinds}]: {mismatch}"
        # Downstream bit-identity: a sketch-consuming estimate over the
        # patched sketch must equal the same estimate over the rebuild.
        transposed = MNCSketch.from_matrix(incremental.to_matrix().T)
        got = float(estimate_product_nnz(patched, transposed))
        want = float(estimate_product_nnz(rebuilt, transposed))
        if got != want:
            return (f"leaf {position}: product estimate from patched sketch "
                    f"{got!r} != from rebuilt sketch {want!r}")
    return None


register_contract(Contract(
    id="incremental_equals_rebuild",
    description="a sketch patched by seeded deltas is bit-identical to a "
                "from-scratch rebuild, downstream estimates included",
    paper_ref="Section 3.1 applied online (see docs/STREAMING.md)",
    applies=_applies_incremental,
    check=_check_incremental,
))


def _applies_backends_agree(spec: EstimatorSpec, case: Case) -> bool:
    # One extra full evaluation per participating backend; sub-sample the
    # stream like the determinism contract to keep the default budget fast.
    return case.index % 3 == 1 and case_supported(spec.make(), case)


def _check_backends_agree(spec: EstimatorSpec, case: Case) -> Optional[str]:
    from repro import backends
    from repro.backends.jit_backend import KernelBackend

    # numpy vs the uncompiled kernels on every machine, and vs numba's
    # compiled build of the same kernels where numba imports.
    reference = None
    candidates = ["numpy", KernelBackend()]
    if backends.numba_importable():
        candidates.append("numba")
    for candidate in candidates:
        with backends.use_backend(candidate) as backend:
            estimate = estimate_case(spec.make(), case)
        if reference is None:
            reference = (backend.name, estimate)
        elif estimate != reference[1] and not (
            np.isnan(estimate) and np.isnan(reference[1])
        ):
            return (f"backend {backend.name!r} estimates {estimate!r} but "
                    f"{reference[0]!r} estimates {reference[1]!r} "
                    f"(bit-identity contract)")
    return None


register_contract(Contract(
    id="backends_agree",
    description="every kernel backend produces the byte-identical estimate",
    paper_ref="implementation requirement (multi-backend dispatch, "
              "docs/PERFORMANCE.md)",
    applies=_applies_backends_agree,
    check=_check_backends_agree,
))

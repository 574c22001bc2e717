"""Random expression-workload generator (SparsEst stress extension).

The fifteen B-cases pin down known structural patterns; this module
generates *random* well-shaped expression DAGs — mixes of products,
element-wise operations, and reorganizations over structured leaves — to
test estimators beyond hand-picked cases. Generation is seeded and
reproducible; every generated DAG is valid by construction (shapes are
tracked during generation).

The default operation mix follows the paper's observation that "chains of
pure matrix products rarely exceed a length of five; much more common are
chains of matrix products interleaved with reorganizations and
element-wise operations".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.rounding import SeedLike, resolve_rng
from repro.ir.nodes import (
    Expr,
    eq_zero,
    ewise_add,
    ewise_mult,
    leaf,
    matmul,
    neq_zero,
    transpose,
)
from repro.matrix.random import (
    diagonal_matrix,
    permutation_matrix,
    power_law_columns,
    random_sparse,
    single_nnz_per_row,
)


@dataclass
class WorkloadConfig:
    """Knobs for the random workload generator.

    Attributes:
        max_depth: maximum operation depth of a generated DAG.
        dims: candidate dimension sizes for leaf matrices.
        sparsity_range: (lo, hi) for uniform-random leaf sparsities.
        leaf_kinds: structured leaf families to draw from; any subset of
            ``{"uniform", "power_law", "single_nnz", "permutation",
            "diagonal"}``.
        product_weight / ewise_weight / reorg_weight: relative frequency of
            drawing each operation family at an internal node.
    """

    max_depth: int = 4
    dims: tuple[int, ...] = (40, 80, 120)
    sparsity_range: tuple[float, float] = (0.005, 0.4)
    leaf_kinds: tuple[str, ...] = (
        "uniform", "power_law", "single_nnz", "permutation", "diagonal"
    )
    product_weight: float = 0.4
    ewise_weight: float = 0.3
    reorg_weight: float = 0.3


_VALID_LEAF_KINDS = {
    "uniform", "power_law", "single_nnz", "permutation", "diagonal"
}


class WorkloadGenerator:
    """Seeded generator of random valid expression DAGs."""

    def __init__(self, config: Optional[WorkloadConfig] = None, seed: SeedLike = 0):
        self.config = config or WorkloadConfig()
        unknown = set(self.config.leaf_kinds) - _VALID_LEAF_KINDS
        if unknown:
            raise ValueError(f"unknown leaf kinds: {sorted(unknown)}")
        if self.config.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self._rng = resolve_rng(seed)
        self._counter = 0

    # ------------------------------------------------------------------

    def expression(self) -> Expr:
        """Generate one random expression DAG."""
        m = int(self._rng.choice(self.config.dims))
        n = int(self._rng.choice(self.config.dims))
        return self._grow(m, n, self.config.max_depth)

    def batch(self, count: int) -> List[Expr]:
        """Generate *count* independent expressions."""
        return [self.expression() for _ in range(count)]

    # ------------------------------------------------------------------

    def _grow(self, m: int, n: int, depth: int) -> Expr:
        if depth <= 0 or self._rng.random() < 0.25:
            return self._leaf(m, n)
        weights = np.array([
            self.config.product_weight,
            self.config.ewise_weight,
            self.config.reorg_weight,
        ])
        weights = weights / weights.sum()
        family = self._rng.choice(["product", "ewise", "reorg"], p=weights)
        if family == "product":
            k = int(self._rng.choice(self.config.dims))
            left = self._grow(m, k, depth - 1)
            right = self._grow(k, n, depth - 1)
            return matmul(left, right)
        if family == "ewise":
            left = self._grow(m, n, depth - 1)
            right = self._grow(m, n, depth - 1)
            if self._rng.random() < 0.5:
                return ewise_add(left, right)
            return ewise_mult(left, right)
        # Reorganizations that preserve an (m, n) output shape.
        choice = self._rng.choice(["transpose", "neq", "eq"])
        if choice == "transpose":
            return transpose(self._grow(n, m, depth - 1))
        if choice == "neq":
            return neq_zero(self._grow(m, n, depth - 1))
        return eq_zero(self._grow(m, n, depth - 1))

    def _leaf(self, m: int, n: int) -> Expr:
        self._counter += 1
        kind = self._rng.choice(self.config.leaf_kinds)
        lo, hi = self.config.sparsity_range
        sparsity = float(self._rng.uniform(lo, hi))
        seed = self._rng
        if kind == "single_nnz":
            matrix = single_nnz_per_row(m, n, seed=seed)
        elif kind == "power_law":
            total = max(1, int(sparsity * m * n))
            matrix = power_law_columns(m, n, total_nnz=total, seed=seed)
        elif kind == "permutation" and m == n:
            matrix = permutation_matrix(m, seed=seed)
        elif kind == "diagonal" and m == n:
            matrix = diagonal_matrix(m, seed=seed)
        else:
            matrix = random_sparse(m, n, sparsity, seed=seed)
        return leaf(matrix, name=f"L{self._counter}:{kind}")


def workload_errors(
    expressions: List[Expr],
    estimator_names: List[str],
    **estimator_kwargs: Dict,
) -> Dict[str, List[float]]:
    """Relative errors of each estimator over a batch of expressions.

    Estimators that cannot express a DAG contribute no entry for it (their
    lists can be shorter); callers can compare geometric means over the
    supported subsets.
    """
    from repro.errors import UnsupportedOperationError
    from repro.estimators import make_estimator
    from repro.ir.estimate import estimate_root_nnz
    from repro.sparsest.metrics import relative_error
    from repro.sparsest.runner import true_nnz_of

    errors: Dict[str, List[float]] = {name: [] for name in estimator_names}
    for expression in expressions:
        truth = true_nnz_of(expression)
        for name in estimator_names:
            estimator = make_estimator(name, **estimator_kwargs.get(name, {}))
            try:
                estimate = estimate_root_nnz(expression, estimator)
            except UnsupportedOperationError:
                continue
            errors[name].append(relative_error(truth, estimate))
    return errors

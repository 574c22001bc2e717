"""Confidence intervals for MNC product estimates (paper future work #2).

The MNC fallback estimator models the product as a sum of outer products
whose non-zeros land uniformly in ``p`` candidate cells; cell ``c`` is
non-zero with probability ``q = 1 - prod_k(1 - v_a[k] * v_b[k] / p)``. The
total non-zero count is then a sum of ``p`` (weakly dependent) Bernoulli
variables. Under the same independence assumption the point estimate
already makes, a normal approximation gives

    nnz ~ Normal(p * q, p * q * (1 - q))

which this module turns into two-sided confidence intervals. When the
estimate comes from an exact case (Theorem 3.1, or a bound clamping to the
exact value), the interval collapses to the point.

The interval quantifies only the *model* variance (cell-occupancy noise
under the uniform-within-slices assumption), not structural model error —
the same caveat as the paper's average-case estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from repro.core.estimate import (
    estimate_product_nnz,
    product_nnz_lower_bound,
    product_nnz_upper_bound,
)
from repro.core.sketch import MNCSketch
from repro.errors import ShapeError


@dataclass(frozen=True)
class NnzInterval:
    """A point estimate with a two-sided confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float
    exact: bool

    @property
    def width(self) -> float:
        """Absolute width of the interval."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Whether *value* falls inside the interval (inclusive)."""
        return self.lower <= value <= self.upper


def estimate_product_interval(
    h_a: MNCSketch,
    h_b: MNCSketch,
    confidence: float = 0.95,
) -> NnzInterval:
    """Point estimate and confidence interval for ``nnz(A B)``.

    Args:
        h_a, h_b: MNC sketches of the operands.
        confidence: two-sided confidence level in (0, 1).

    Returns:
        An :class:`NnzInterval`; ``exact=True`` (zero-width) when Theorem
        3.1 applies or the Theorem 3.2 bounds pin the estimate.
    """
    if not 0.0 < confidence < 1.0:
        raise ShapeError(f"confidence must be in (0, 1), got {confidence}")
    if h_a.ncols != h_b.nrows:
        raise ShapeError(
            f"product requires inner dimensions to agree: {h_a.shape} x {h_b.shape}"
        )
    estimate = estimate_product_nnz(h_a, h_b)
    lower_bound = float(product_nnz_lower_bound(h_a, h_b))
    upper_bound = float(product_nnz_upper_bound(h_a, h_b))

    exact_case = (
        h_a.max_hr <= 1 or h_b.max_hc <= 1 or upper_bound <= lower_bound
    )
    if h_a.total_nnz == 0 or h_b.total_nnz == 0:
        return NnzInterval(0.0, 0.0, 0.0, confidence, exact=True)
    if exact_case:
        return NnzInterval(estimate, estimate, estimate, confidence, exact=True)

    # Reconstruct the fallback model's p and q for the variance.
    cells = float(h_a.nnz_rows) * float(h_b.nnz_cols)
    if cells <= 0:
        return NnzInterval(estimate, estimate, estimate, confidence, exact=True)
    occupancy = min(max(estimate / cells, 0.0), 1.0)
    variance = cells * occupancy * (1.0 - occupancy)
    std = math.sqrt(max(variance, 0.0))
    z = float(ndtri(0.5 + confidence / 2.0))
    lower = max(estimate - z * std, lower_bound, 0.0)
    upper = min(estimate + z * std, upper_bound, float(h_a.nrows * h_b.ncols))
    return NnzInterval(estimate, lower, upper, confidence, exact=False)


def interval_from_samples(
    samples: np.ndarray, confidence: float = 0.95
) -> NnzInterval:
    """Empirical (percentile) interval from repeated randomized estimates.

    Useful for propagated chains, where the probabilistic rounding in
    sketch propagation is the dominant noise source: run the propagation
    under ``k`` seeds and summarize.
    """
    if not 0.0 < confidence < 1.0:
        raise ShapeError(f"confidence must be in (0, 1), got {confidence}")
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ShapeError("need at least one sample")
    alpha = (1.0 - confidence) / 2.0
    lower = float(np.quantile(values, alpha))
    upper = float(np.quantile(values, 1.0 - alpha))
    point = float(values.mean())
    exact = bool(values.max() == values.min())
    return NnzInterval(point, lower, upper, confidence, exact=exact)

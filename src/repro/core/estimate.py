"""MNC sparsity estimation for matrix products (paper Section 3.2).

Implements Algorithm 1: the exact case of Theorem 3.1, the
extension-vector case, the density-map-like fallback over count vectors, and
the lower/upper bounds of Theorem 3.2.

Hot-path notes (docs/PERFORMANCE.md): the drivers read the sketches'
cached float64 count views (``hr_f64``/``hc_f64``), evaluate the
density-map fallback in a reused scratch buffer with native
``np.log1p``/``np.sum`` (the same numpy code under every backend),
dispatch the exact inner loops through
:func:`repro.backends.get_backend` (numpy or numba-compiled kernels,
byte-identical through exact arithmetic), and only enter a tracing span
when a collector is listening — the estimates are the same under every
combination.
"""

from __future__ import annotations

import numpy as np

from repro.backends import get_backend
from repro.core.scratch import ScratchBuffer
from repro.core.sketch import MNCSketch
from repro.errors import ShapeError
from repro.observability.trace import trace, tracing_enabled

#: Scratch for the density-map collision vector (one per call site; see
#: repro.core.scratch for the aliasing rules).
_DM_SCRATCH = ScratchBuffer(np.float64)
#: Scratch for the residual count vectors of the extension case (Eq 8-9).
_RESID_A_SCRATCH = ScratchBuffer(np.float64)
_RESID_B_SCRATCH = ScratchBuffer(np.float64)


def _check_product_shapes(h_a: MNCSketch, h_b: MNCSketch) -> None:
    if h_a.ncols != h_b.nrows:
        raise ShapeError(
            f"product requires inner dimensions to agree: "
            f"{h_a.shape} x {h_b.shape}"
        )


def density_map_vector_estimate(
    v_a: np.ndarray, v_b: np.ndarray, cells: float
) -> float:
    """Density-map-style estimate of the non-zeros of a sum of outer products.

    Treats each slice ``k`` of the common dimension as an outer product with
    ``v_a[k] * v_b[k]`` candidate non-zeros scattered uniformly over *cells*
    output cells, and combines slices with the probabilistic-union operator of
    Eq 4 (``s (+) t = s + t - s*t``). Evaluated in log space so thousands of
    slices do not underflow, and entirely inside a reused scratch buffer so
    the optimizer's inner loop allocates nothing here.

    Args:
        v_a: per-slice non-zero counts on the left (columns of A).
        v_b: per-slice non-zero counts on the right (rows of B).
        cells: number of output cells the non-zeros can land in.

    Returns:
        Estimated number of non-zeros, in ``[0, cells]``.
    """
    if cells <= 0:
        return 0.0
    v_a = np.asarray(v_a, dtype=np.float64)
    v_b = np.asarray(v_b, dtype=np.float64)
    if v_a.size == 0:
        return float(cells) * float(-np.expm1(0.0))
    backend = get_backend()
    collision = _DM_SCRATCH.get(v_a.size)
    # The fused kernel multiplies by the negated reciprocal (one multiply
    # replaces the divide and the negation pass; ``x * (-r) == -(x * r)``
    # exactly in IEEE 754). Counts are non-negative, so the per-slice
    # probabilities only need the upper clamp — and any slice at
    # probability >= 1 saturates the whole estimate, which the kernel
    # reports as the early-return flag.
    if backend.dm_collision_log1p(v_a, v_b, -1.0 / cells, collision):
        return float(cells)
    log_all_zero = backend.tree_sum(collision)
    return float(cells) * float(-np.expm1(log_all_zero))


def product_nnz_upper_bound(h_a: MNCSketch, h_b: MNCSketch) -> int:
    """Theorem 3.2 upper bound: ``nnz(hr_A) * nnz(hc_B)`` capped at ``m*l``.

    Every output non-zero needs a non-empty row of A and a non-empty column
    of B, so the product of those counts bounds the output non-zeros.
    """
    _check_product_shapes(h_a, h_b)
    return min(h_a.nnz_rows * h_b.nnz_cols, h_a.nrows * h_b.ncols)


def product_nnz_lower_bound(h_a: MNCSketch, h_b: MNCSketch) -> int:
    """Theorem 3.2 lower bound: ``|hr_A > n/2| * |hc_B > n/2|``.

    A row of A and column of B that are each more than half full must share
    at least one common index in the length-``n`` common dimension, so their
    output cell is guaranteed non-zero.
    """
    _check_product_shapes(h_a, h_b)
    return h_a.rows_half_full * h_b.cols_half_full


def _estimate_product_nnz_impl(
    h_a: MNCSketch, h_b: MNCSketch, use_extensions: bool, use_bounds: bool
) -> float:
    backend = get_backend()
    m = h_a.shape[0]
    l = h_b.shape[1]
    hc_a = h_a.hc_f64
    hr_b = h_b.hr_f64
    max_hr_a, nnz_rows_a, rows_half_a, rows_single_a = h_a.row_stats
    max_hc_b, nnz_cols_b, cols_half_b, cols_single_b = h_b.col_stats
    full_cells = float(m) * float(l)
    hec_a_arr = h_a.hec
    her_b_arr = h_b.her
    if max_hr_a <= 1 or max_hc_b <= 1:
        # Theorem 3.1: exact.
        nnz = backend.dot(hc_a, hr_b)
    elif use_extensions and (hec_a_arr is not None or her_b_arr is not None):
        # A missing extension vector is all-zero: its residual IS the count
        # vector and its exact-part dot product is zero, so each side only
        # pays for the extension it actually carries.
        exact_part = 0.0
        if hec_a_arr is not None:
            hec_a = h_a.hec_f64_or_zeros()
            resid_a = _RESID_A_SCRATCH.get(hc_a.size)
            backend.subtract(hc_a, hec_a, resid_a)
            exact_part += backend.dot(hec_a, hr_b)
        else:
            resid_a = hc_a
        if her_b_arr is not None:
            her_b = h_b.her_f64_or_zeros()
            resid_b = _RESID_B_SCRATCH.get(hr_b.size)
            backend.subtract(hr_b, her_b, resid_b)
            exact_part += backend.dot(resid_a, her_b)
        else:
            resid_b = hr_b
        if use_bounds:
            residual_rows = nnz_rows_a - rows_single_a
            residual_cols = nnz_cols_b - cols_single_b
            cells = float(residual_rows) * float(residual_cols)
        else:
            cells = full_cells
        generic_part = density_map_vector_estimate(resid_a, resid_b, cells)
        nnz = exact_part + generic_part
    else:
        if use_bounds:
            cells = float(nnz_rows_a) * float(nnz_cols_b)
        else:
            cells = full_cells
        nnz = density_map_vector_estimate(hc_a, hr_b, cells)

    if use_bounds:
        # Theorem 3.2 bounds, inlined from product_nnz_lower_bound /
        # product_nnz_upper_bound minus their (already-performed) shape check.
        lower = float(rows_half_a * cols_half_b)
        if nnz < lower:
            nnz = lower
        upper = float(min(nnz_rows_a * nnz_cols_b, m * l))
        if nnz > upper:
            nnz = upper
    return min(nnz, full_cells)


def estimate_product_nnz(
    h_a: MNCSketch,
    h_b: MNCSketch,
    use_extensions: bool = True,
    use_bounds: bool = True,
) -> float:
    """Estimate ``nnz(A B)`` from the MNC sketches of A and B (Algorithm 1).

    Case 1 (Theorem 3.1): if every row of A or every column of B holds at
    most one non-zero, the boolean product is a disjoint union of outer
    products and ``hc_A . hr_B`` is the exact count.

    Case 2 (extension vectors): the non-zeros contributed by single-non-zero
    rows of A and single-non-zero columns of B are counted exactly via
    ``hec_A . hr_B + (hc_A - hec_A) . her_B``; the remainder is estimated by
    the density-map fallback over the residual count vectors with the output
    restricted to the non-single, non-empty rows/columns (Eq 8–9).

    Case 3 (fallback): density-map estimate over ``hc_A``/``hr_B`` with the
    output size reduced to non-empty rows times non-empty columns, which is
    also how the Theorem 3.2 upper bound enters.

    Finally the Theorem 3.2 lower bound is imposed.

    Args:
        h_a: sketch of the left operand.
        h_b: sketch of the right operand.
        use_extensions: disable to skip the extension-vector case ("MNC
            Basic" in the paper's figures).
        use_bounds: disable to skip the Theorem 3.2 bounds and the reduced
            output size ``p`` ("MNC Basic").

    Returns:
        Estimated number of non-zeros (float; callers divide by ``m*l`` for
        sparsity or round for allocation decisions).
    """
    if h_a.shape[1] != h_b.shape[0]:
        raise ShapeError(
            f"product requires inner dimensions to agree: "
            f"{h_a.shape} x {h_b.shape}"
        )
    # Empty shapes imply empty totals, so the two nnz checks subsume the
    # m == 0 / l == 0 cases.
    if h_a.total_nnz == 0 or h_b.total_nnz == 0:
        return 0.0
    if not tracing_enabled():
        return _estimate_product_nnz_impl(h_a, h_b, use_extensions, use_bounds)
    with trace(
        "mnc.estimate.matmul",
        operand_shapes=(h_a.shape, h_b.shape),
        operand_nnz=(h_a.total_nnz, h_b.total_nnz),
    ) as span:
        nnz = _estimate_product_nnz_impl(h_a, h_b, use_extensions, use_bounds)
        span.annotate(result_nnz=nnz)
        return nnz


def estimate_product_sparsity(
    h_a: MNCSketch,
    h_b: MNCSketch,
    use_extensions: bool = True,
    use_bounds: bool = True,
) -> float:
    """Estimate the sparsity of ``A B`` (Algorithm 1 scaled by ``m*l``)."""
    _check_product_shapes(h_a, h_b)
    cells = h_a.nrows * h_b.ncols
    if cells == 0:
        return 0.0
    nnz = estimate_product_nnz(
        h_a, h_b, use_extensions=use_extensions, use_bounds=use_bounds
    )
    return nnz / cells

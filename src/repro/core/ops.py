"""MNC estimation and sketch propagation for non-product operations.

Paper Section 4: reorganizations (transpose, reshape, diag, rbind/cbind,
``A == 0`` / ``A != 0``) mostly allow exact inference, while element-wise
addition and multiplication are estimated with the structure-aware collision
factor of Eq 13 and propagated with Eq 15.

Count vectors are always propagated; extension vectors only when they are
known to be exactly preserved (transpose, rbind/cbind on the unchanged axis,
vector-to-matrix diag).

Every rule here derives its output vectors from already-validated input
sketches and re-establishes the invariants (dtype, ranges, matching
totals) by construction, so results are built through the trusted fast
tier (:meth:`MNCSketch.trusted`); ``repro.verify`` re-enables full
validation via :func:`repro.core.hotpath.validated_scope`.
"""

from __future__ import annotations

import numpy as np

from repro.core.propagate import _reconcile_totals
from repro.core.rounding import SeedLike, probabilistic_round, resolve_rng
from repro.core.sketch import COUNT_DTYPE, MNCSketch, empty_counts
from repro.errors import ShapeError


def _check_same_shape(h_a: MNCSketch, h_b: MNCSketch, op: str) -> None:
    if h_a.shape != h_b.shape:
        raise ShapeError(f"{op} requires equal shapes: {h_a.shape} vs {h_b.shape}")


def _collision_factor(counts_a: np.ndarray, counts_b: np.ndarray,
                      nnz_a: int, nnz_b: int) -> float:
    """The paper's lambda: alignment of non-zeros along the opposite axis.

    ``lambda = sum_j(hc_A[j] * hc_B[j]) / (nnz(A) * nnz(B))`` measures how
    strongly the two operands' non-zeros collide: 0 for disjoint supports,
    and large when mass concentrates in the same slices. The counts come
    as the sketches' cached float64 views.
    """
    if nnz_a == 0 or nnz_b == 0:
        return 0.0
    dot = float(counts_a @ counts_b)
    return dot / (float(nnz_a) * float(nnz_b))


# ----------------------------------------------------------------------
# Element-wise estimation (Eq 13)
# ----------------------------------------------------------------------

def estimate_ewise_mult_nnz(h_a: MNCSketch, h_b: MNCSketch) -> float:
    """Estimate ``nnz(A (*) B)`` (Hadamard product) via Eq 13.

    Row-wise expected intersections ``hr_A[i] * hr_B[i] * lambda`` are
    aggregated, where ``lambda`` is computed from the column counts. The
    formula is algebraically symmetric in rows/columns. The result is clamped
    to the structural bound ``min(nnz(A), nnz(B))``.
    """
    _check_same_shape(h_a, h_b, "ewise_mult")
    lam = _collision_factor(h_a.hc_f64, h_b.hc_f64, h_a.total_nnz, h_b.total_nnz)
    row_products = h_a.hr_f64 * h_b.hr_f64
    estimate = float(row_products.sum()) * lam
    return min(estimate, float(min(h_a.total_nnz, h_b.total_nnz)))


def estimate_ewise_add_nnz(h_a: MNCSketch, h_b: MNCSketch) -> float:
    """Estimate ``nnz(A + B)`` (structure union) via Eq 13.

    ``nnz(A) + nnz(B) - nnz(A (*) B)`` with the intersection estimated as in
    :func:`estimate_ewise_mult_nnz`; clamped to the structural bounds
    ``[max(nnz(A), nnz(B)), min(nnz(A) + nnz(B), m*n)]``.
    """
    _check_same_shape(h_a, h_b, "ewise_add")
    overlap = estimate_ewise_mult_nnz(h_a, h_b)
    estimate = float(h_a.total_nnz + h_b.total_nnz) - overlap
    lower = float(max(h_a.total_nnz, h_b.total_nnz))
    upper = float(min(h_a.total_nnz + h_b.total_nnz, h_a.cells))
    return min(max(estimate, lower), upper)


# ----------------------------------------------------------------------
# Reorganization propagation (Eq 14)
# ----------------------------------------------------------------------

def propagate_transpose(h: MNCSketch) -> MNCSketch:
    """Sketch of ``A^T``: row and column structures swap exactly."""
    return MNCSketch.trusted(
        shape=(h.ncols, h.nrows), hr=h.hc, hc=h.hr, her=h.hec, hec=h.her,
        fully_diagonal=h.fully_diagonal, exact=h.exact,
    )


def propagate_not_equals_zero(h: MNCSketch) -> MNCSketch:
    """Sketch of ``A != 0``: identical to the input sketch (shallow reuse)."""
    return h


def propagate_equals_zero(h: MNCSketch) -> MNCSketch:
    """Sketch of ``A == 0``: complemented counts, extensions dropped."""
    m, n = h.shape
    return MNCSketch.trusted(
        shape=h.shape, hr=n - h.hr, hc=m - h.hc, her=None, hec=None,
        fully_diagonal=False, exact=h.exact,
    )


def propagate_rbind(h_a: MNCSketch, h_b: MNCSketch) -> MNCSketch:
    """Sketch of ``rbind(A, B)`` (A stacked above B).

    ``hr`` concatenates and ``hc`` adds, both exactly. ``hec`` adds exactly
    too — the rows are untouched, so "non-zeros in single-non-zero rows"
    is preserved per operand. ``her`` is dropped: a column that is
    single-non-zero in an operand need not be single in the result.
    """
    if h_a.ncols != h_b.ncols:
        raise ShapeError(f"rbind requires equal column counts: {h_a.shape} vs {h_b.shape}")
    hec = None
    if h_a.hec is not None and h_b.hec is not None:
        hec = h_a.hec + h_b.hec
    return MNCSketch.trusted(
        shape=(h_a.nrows + h_b.nrows, h_a.ncols),
        hr=np.concatenate([h_a.hr, h_b.hr]),
        hc=h_a.hc + h_b.hc,
        her=None, hec=hec,
        fully_diagonal=False, exact=h_a.exact and h_b.exact,
    )


def propagate_cbind(h_a: MNCSketch, h_b: MNCSketch) -> MNCSketch:
    """Sketch of ``cbind(A, B)``; symmetric to :func:`propagate_rbind`."""
    if h_a.nrows != h_b.nrows:
        raise ShapeError(f"cbind requires equal row counts: {h_a.shape} vs {h_b.shape}")
    her = None
    if h_a.her is not None and h_b.her is not None:
        her = h_a.her + h_b.her
    return MNCSketch.trusted(
        shape=(h_a.nrows, h_a.ncols + h_b.ncols),
        hr=h_a.hr + h_b.hr,
        hc=np.concatenate([h_a.hc, h_b.hc]),
        her=her, hec=None,
        fully_diagonal=False, exact=h_a.exact and h_b.exact,
    )


def propagate_diag_vector(h: MNCSketch) -> MNCSketch:
    """Sketch of ``diag(v)`` for an ``m x 1`` vector ``v`` (exact).

    Every output row/column inherits the vector's 0/1 row indicator; the
    extensions equal the counts because each row and column holds at most one
    non-zero.
    """
    if h.ncols != 1:
        raise ShapeError(f"diag expects an m x 1 vector sketch, got {h.shape}")
    indicator = h.hr.copy()
    m = h.nrows
    dense_diagonal = bool(m > 0 and int(indicator.min()) == 1)
    return MNCSketch.trusted(
        shape=(m, m), hr=indicator, hc=indicator.copy(),
        her=indicator.copy(), hec=indicator.copy(),
        fully_diagonal=dense_diagonal, exact=h.exact,
    )


def propagate_diag_extract(h: MNCSketch, rng: SeedLike = None) -> MNCSketch:
    """Best-effort sketch of ``diag(A)`` for square ``A`` (matrix-to-vector).

    Uses the rank-1 structure model ``P(A[i,i] != 0) ~ hr[i] * hc[i] / nnz``
    per row; the output is a vector, so best-effort suffices (paper Sec 4.2).
    """
    if h.nrows != h.ncols:
        raise ShapeError(f"diag extraction expects a square sketch, got {h.shape}")
    m = h.nrows
    if h.total_nnz == 0 or m == 0:
        hr = np.zeros(m, dtype=COUNT_DTYPE)
    else:
        prob = (h.hr.astype(np.float64) * h.hc.astype(np.float64)) / h.total_nnz
        np.clip(prob, 0.0, 1.0, out=prob)
        hr = probabilistic_round(prob, rng=rng, maximum=1)
    hc = np.array([int(hr.sum())], dtype=COUNT_DTYPE)
    return MNCSketch.trusted(
        shape=(m, 1), hr=hr, hc=hc, her=None, hec=None,
        fully_diagonal=False, exact=False,
    )


def propagate_reshape(
    h: MNCSketch, rows: int, cols: int, rng: SeedLike = None
) -> MNCSketch:
    """Sketch of a row-wise reshape of ``A`` into ``rows x cols``.

    Three cases (paper handles the first; the others are the symmetric and
    best-effort completions):

    - ``m % rows == 0`` (concatenating ``m/rows`` input rows per output row):
      ``hr`` aggregates groups of consecutive input rows exactly; ``hc``
      spreads each input column count uniformly over its ``m/rows`` replicas.
    - ``rows % m == 0`` (splitting each input row into ``rows/m`` output
      rows): ``hc`` aggregates strided input columns exactly; ``hr`` spreads
      each input row count uniformly over its splits.
    - otherwise: best-effort uniform redistribution of the total count.
    """
    m, n = h.shape
    if rows * cols != m * n:
        raise ShapeError(
            f"cannot reshape {m}x{n} into {rows}x{cols}: cell counts differ"
        )
    generator = resolve_rng(rng)
    if rows == m and cols == n:
        return h
    if rows > 0 and m % rows == 0:
        group = m // rows
        # Group sums are row counts of the result (at most cols), so the
        # count width holds them; numpy would widen to int64.
        hr = h.hr.reshape(rows, group).sum(axis=1, dtype=COUNT_DTYPE)
        scaled_cols = np.tile(h.hc.astype(np.float64) / group, group)
        hc = probabilistic_round(scaled_cols, rng=generator, maximum=rows)
    elif m > 0 and rows % m == 0:
        split = rows // m
        hc = h.hc.reshape(split, cols).sum(axis=0, dtype=COUNT_DTYPE)
        scaled_rows = np.repeat(h.hr.astype(np.float64) / split, split)
        hr = probabilistic_round(scaled_rows, rng=generator, maximum=cols)
    else:
        total = float(h.total_nnz)
        hr = probabilistic_round(
            np.full(rows, total / max(rows, 1)), rng=generator, maximum=cols
        )
        hc = probabilistic_round(
            np.full(cols, total / max(cols, 1)), rng=generator, maximum=rows
        )
    hr, hc = _fix_reshape_totals(h, hr, hc, rows, cols, generator)
    exact = h.exact and rows > 0 and m % rows == 0 and _is_uniform(h.hc, rows, m)
    return MNCSketch.trusted(
        shape=(rows, cols), hr=hr, hc=hc, her=None, hec=None,
        fully_diagonal=False, exact=exact,
    )


def _is_uniform(counts: np.ndarray, rows: int, m: int) -> bool:
    """Whether the approximate axis of a reshape happens to be exact."""
    if m == 0 or rows == 0:
        return False
    group = m // rows
    return bool(group == 1 or np.all(counts % group == 0))


def _fix_reshape_totals(
    h: MNCSketch,
    hr: np.ndarray,
    hc: np.ndarray,
    rows: int,
    cols: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Force both reshape histograms to sum to the exact (preserved) nnz."""
    for counts, maximum in ((hr, cols), (hc, rows)):
        diff = h.total_nnz - int(counts.sum())
        while diff != 0:
            if diff > 0:
                adjustable = np.flatnonzero(counts < maximum)
                step = 1
            else:
                adjustable = np.flatnonzero(counts > 0)
                step = -1
            if adjustable.size == 0:  # pragma: no cover - cells >= nnz always
                break
            take = min(abs(diff), adjustable.size)
            counts[rng.choice(adjustable, size=take, replace=False)] += step
            diff -= step * take
    return hr, hc


def propagate_row_sums(h: MNCSketch) -> MNCSketch:
    """Sketch of structural ``rowSums(A)`` (exact).

    The aggregate's entry ``i`` is non-zero iff row ``i`` is non-empty, so
    the output row indicator is ``hr > 0`` and the single output column
    holds ``nnz_rows`` non-zeros.
    """
    indicator = (h.hr > 0).astype(COUNT_DTYPE)
    hc = np.array([int(indicator.sum())], dtype=COUNT_DTYPE)
    return MNCSketch.trusted(
        shape=(h.nrows, 1), hr=indicator, hc=hc, her=None, hec=None,
        fully_diagonal=False, exact=h.exact,
    )


def propagate_col_sums(h: MNCSketch) -> MNCSketch:
    """Sketch of structural ``colSums(A)`` (exact; see
    :func:`propagate_row_sums`)."""
    indicator = (h.hc > 0).astype(COUNT_DTYPE)
    hr = np.array([int(indicator.sum())], dtype=COUNT_DTYPE)
    return MNCSketch.trusted(
        shape=(1, h.ncols), hr=hr, hc=indicator, her=None, hec=None,
        fully_diagonal=False, exact=h.exact,
    )


# ----------------------------------------------------------------------
# Element-wise propagation (Eq 15)
# ----------------------------------------------------------------------

def propagate_ewise_mult(
    h_a: MNCSketch, h_b: MNCSketch, rng: SeedLike = None
) -> MNCSketch:
    """Sketch of ``A (*) B``: per-axis collision estimates (Eq 15)."""
    _check_same_shape(h_a, h_b, "ewise_mult")
    generator = resolve_rng(rng)
    hr_a, hr_b, hc_a, hc_b = h_a.hr_f64, h_b.hr_f64, h_a.hc_f64, h_b.hc_f64
    lam_c = _collision_factor(hc_a, hc_b, h_a.total_nnz, h_b.total_nnz)
    lam_r = _collision_factor(hr_a, hr_b, h_a.total_nnz, h_b.total_nnz)
    hr_est = hr_a * hr_b * lam_c
    hc_est = hc_a * hc_b * lam_r
    hr, hc = empty_counts(*h_a.shape)
    probabilistic_round(
        np.minimum(hr_est, np.minimum(h_a.hr, h_b.hr)), rng=generator,
        maximum=h_a.ncols, out=hr,
    )
    probabilistic_round(
        np.minimum(hc_est, np.minimum(h_a.hc, h_b.hc)), rng=generator,
        maximum=h_a.nrows, out=hc,
    )
    _reconcile_totals(hr, hc, generator)
    return MNCSketch.trusted(
        shape=h_a.shape, hr=hr, hc=hc, her=None, hec=None,
        fully_diagonal=False, exact=False,
    )


def propagate_ewise_add(
    h_a: MNCSketch, h_b: MNCSketch, rng: SeedLike = None
) -> MNCSketch:
    """Sketch of ``A + B`` (structure union): Eq 15 with union formula."""
    _check_same_shape(h_a, h_b, "ewise_add")
    generator = resolve_rng(rng)
    hr_a, hr_b, hc_a, hc_b = h_a.hr_f64, h_b.hr_f64, h_a.hc_f64, h_b.hc_f64
    lam_c = _collision_factor(hc_a, hc_b, h_a.total_nnz, h_b.total_nnz)
    lam_r = _collision_factor(hr_a, hr_b, h_a.total_nnz, h_b.total_nnz)
    hr_est = hr_a + hr_b - hr_a * hr_b * lam_c
    hc_est = hc_a + hc_b - hc_a * hc_b * lam_r
    # Structural bounds: union of a row is at least the larger operand row
    # and at most the sum (capped by the row length via `maximum`).
    hr_est = np.clip(hr_est, np.maximum(h_a.hr, h_b.hr), h_a.hr + h_b.hr)
    hc_est = np.clip(hc_est, np.maximum(h_a.hc, h_b.hc), h_a.hc + h_b.hc)
    hr, hc = empty_counts(*h_a.shape)
    probabilistic_round(hr_est, rng=generator, maximum=h_a.ncols, out=hr)
    probabilistic_round(hc_est, rng=generator, maximum=h_a.nrows, out=hc)
    _reconcile_totals(hr, hc, generator)
    return MNCSketch.trusted(
        shape=h_a.shape, hr=hr, hc=hc, her=None, hec=None,
        fully_diagonal=False, exact=False,
    )

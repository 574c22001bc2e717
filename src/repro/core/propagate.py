"""Sketch propagation for matrix products (paper Section 3.3).

For chains of products, sketches of intermediates are derived rather than
constructed: the output sparsity is estimated with Algorithm 1, and the input
row/column histograms are scaled to the new total (Eq 11) with probabilistic
rounding to avoid the ultra-sparse rounding bias. When one operand is fully
diagonal and square, the other operand's sketch is propagated unchanged
(Eq 12) — the product's structure is guaranteed identical.

Hot-path notes (docs/PERFORMANCE.md): derived sketches are built through
the trusted tier (:meth:`MNCSketch.trusted` — scaling and reconciliation
re-establish every invariant by construction), Eq 11 scale-and-round and
the bulk reconciliation rounds dispatch through
:func:`repro.backends.get_backend` with the rounding draws threaded in
from the caller's generator, and tracing spans are entered only when a
collector listens. A caller that owns the result's storage (the chain
DP's workspace) passes it as ``out``: the counts and their float64 views
are then written into it and nothing is allocated per product.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends import get_backend
from repro.core.estimate import estimate_product_nnz
from repro.core.rounding import SeedLike, resolve_rng
from repro.core.scratch import ScratchBuffer
from repro.core.sketch import COUNT_DTYPE, MNCSketch, empty_counts
from repro.errors import ShapeError
from repro.observability.trace import trace, tracing_enabled

#: Scratch for the Eq 11 rounding draws (one per call site; the scale
#: itself is fused into the backend's ``scale_round_into`` primitive).
_SCALE_DRAW_SCRATCH = ScratchBuffer(np.float64)


def scale_histogram(
    histogram: np.ndarray,
    target_total: float,
    maximum: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Scale a count histogram to a new total, preserving its shape (Eq 11).

    Entries are multiplied by ``target_total / sum(histogram)`` and rounded
    probabilistically; zero entries stay zero so empty rows/columns remain
    empty through propagation.

    Args:
        histogram: current count vector.
        target_total: desired (estimated) sum after scaling.
        maximum: physical cap per entry (the opposing dimension size).
        rng: randomness for probabilistic rounding.
    """
    result = np.empty(histogram.size, dtype=COUNT_DTYPE)
    _scale_histogram_into(
        histogram, int(histogram.sum()), target_total, maximum, rng, result
    )
    return result


def _scale_histogram_into(
    histogram: np.ndarray,
    current_total: int,
    target_total: float,
    maximum: int,
    rng: SeedLike,
    out: np.ndarray,
) -> None:
    """:func:`scale_histogram` into *out*, given ``sum(histogram)``."""
    if current_total <= 0 or target_total <= 0:
        out.fill(0)
        return
    generator = resolve_rng(rng)
    # Draws come from the caller's generator exactly as the unfused
    # scale-then-round formulation consumed them (one uniform per entry),
    # so fusing the multiply into the backend changes no rounding decision.
    draws = _SCALE_DRAW_SCRATCH.get(histogram.size)
    generator.random(out=draws)
    get_backend().scale_round_into(
        histogram, float(target_total) / float(current_total), draws,
        int(maximum), out,
    )


def _propagate_product_impl(
    h_a: MNCSketch,
    h_b: MNCSketch,
    rng,
    use_extensions: bool,
    use_bounds: bool,
    out: Optional[tuple[np.ndarray, np.ndarray]],
) -> tuple[MNCSketch, float]:
    generator = resolve_rng(rng)
    m, l = h_a.nrows, h_b.ncols
    nnz_estimate = estimate_product_nnz(
        h_a, h_b, use_extensions=use_extensions, use_bounds=use_bounds
    )
    if out is None:
        hr_c, hc_c = empty_counts(m, l)
    else:
        counts, counts_f64 = out
        hr_c, hc_c = counts[:m], counts[m:]
    # sum(hr) == sum(hc) == total_nnz, which Algorithm 1 already cached.
    _scale_histogram_into(
        h_a.hr, h_a.total_nnz, nnz_estimate, l, generator, hr_c
    )
    _scale_histogram_into(
        h_b.hc, h_b.total_nnz, nnz_estimate, m, generator, hc_c
    )
    _reconcile_totals(hr_c, hc_c, generator)
    exact = h_a.exact and h_b.exact and (h_a.max_hr <= 1 or h_b.max_hc <= 1)
    sketch = MNCSketch.trusted(
        shape=(m, l), hr=hr_c, hc=hc_c, her=None, hec=None,
        fully_diagonal=False, exact=exact,
    )
    if out is not None:
        # The float64 views Algorithm 1 and the Eq 17 scan read, filled
        # here in one pass instead of by an ``astype`` on first use.
        np.copyto(counts_f64, counts)
        for name, view in (("_hr_f64", counts_f64[:m]), ("_hc_f64", counts_f64[m:])):
            view.setflags(write=False)
            sketch.__dict__[name] = view
    return sketch, nnz_estimate


def propagate_product(
    h_a: MNCSketch,
    h_b: MNCSketch,
    rng: SeedLike = None,
    use_extensions: bool = True,
    use_bounds: bool = True,
    *,
    out: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> MNCSketch:
    """Derive the sketch of ``C = A B`` from the sketches of A and B.

    Runs in ``O(m + n + l)``. Extension vectors are not propagated (they are
    only kept when exactly preserved, which a generic product does not
    guarantee); the fully-diagonal special case propagates the full sketch of
    the other operand, extensions included.

    Args:
        h_a, h_b: operand sketches.
        rng: randomness for probabilistic rounding.
        use_extensions, use_bounds: forwarded to
            :func:`~repro.core.estimate.estimate_product_nnz` for the "MNC
            Basic" ablation.
        out: caller-owned storage for the result: a
            :data:`~repro.core.sketch.COUNT_DTYPE` and a float64 vector of
            length ``m + l`` each. The derived sketch's ``hr`` and ``hc``
            are then views of the count vector and its cached
            ``hr_f64``/``hc_f64`` views of the float64 one, with the same
            bits as without *out*; the caller must not let the sketch
            outlive the storage. The fully-diagonal case returns an
            operand and leaves *out* untouched.
    """
    if h_a.ncols != h_b.nrows:
        raise ShapeError(
            f"product requires inner dimensions to agree: {h_a.shape} x {h_b.shape}"
        )
    if h_b.fully_diagonal and h_a.ncols == h_b.nrows:
        return h_a
    if h_a.fully_diagonal and h_a.ncols == h_b.nrows:
        return h_b

    if not tracing_enabled():
        sketch, _ = _propagate_product_impl(
            h_a, h_b, rng, use_extensions, use_bounds, out
        )
        return sketch
    with trace(
        "mnc.propagate.matmul",
        operand_shapes=(h_a.shape, h_b.shape),
        operand_nnz=(h_a.total_nnz, h_b.total_nnz),
    ) as span:
        sketch, nnz_estimate = _propagate_product_impl(
            h_a, h_b, rng, use_extensions, use_bounds, out
        )
        span.annotate(result_nnz=nnz_estimate)
        return sketch


def _reconcile_totals(
    hr: np.ndarray, hc: np.ndarray, rng: np.random.Generator
) -> None:
    """Make ``sum(hr) == sum(hc)`` after independent probabilistic rounding.

    Probabilistic rounding of the two histograms is independent, so their
    totals can differ by a small random amount; the sketch invariant requires
    equality. We adjust the histogram with the larger total downwards by
    decrementing randomly chosen positive entries — an O(diff) correction
    that leaves the distribution essentially untouched.
    """
    diff = int(hr.sum() - hc.sum())
    if diff == 0:
        return
    target = hr if diff > 0 else hc
    remaining = abs(diff)
    # sum(target) == sum(other) + remaining >= remaining, so there are always
    # enough units among the positive entries to remove `remaining` of them.
    #
    # Removing units one round at a time (decrement every positive entry by
    # one, repeat) degenerates to an O(diff) loop when Eq 11's per-entry cap
    # truncated the two histograms by very different amounts. The full
    # rounds are deterministic — a round that touches *every* positive entry
    # needs no random choice — so the backend applies them in bulk: after
    # ``r`` rounds each entry holds ``max(v - r, 0)`` and ``sum(min(v, r))``
    # units are gone; it finds the largest such ``r`` that fits, subtracts
    # it in place, and reports the leftovers. Only the final partial round
    # draws randomness, and it stays here in the driver so every backend
    # consumes the generator identically.
    remaining = get_backend().reconcile_bulk(target, remaining)
    if remaining > 0:
        positive = np.flatnonzero(target > 0)
        chosen = rng.choice(positive, size=remaining, replace=False)
        target[chosen] -= 1

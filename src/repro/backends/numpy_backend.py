"""The numpy kernel backend, which is also the backend interface.

A backend implements the proven-hot inner loops of the MNC reproduction
— Algorithm 1's dot products and density-map fallback, Eq 11
scale-and-round, ``_reconcile_totals``' bulk rounding, and the bitset
popcount kernels — as pure array-in/array-out primitives. The
surrounding driver code (shape checks, sketch objects, RNG draws,
tracing guards) lives once in ``repro.core`` and calls whichever backend
:func:`repro.backends.get_backend` resolved.

:class:`NumpyBackend` is both the always-available vectorized backend
and the interface: the kernel backends of
:mod:`repro.backends.jit_backend` subclass it and replace the exact
kernels only. Every backend produces **byte-identical** results for
identical inputs on one machine (docs/PERFORMANCE.md "Backends"):

- integer-valued float64 arithmetic (dot products, histogram totals,
  capped sums) is exact below 2**53, so summation order is free;
- the rounding kernels' element-wise steps (multiply, clamp, floor,
  compare) are IEEE-754 correctly rounded in every implementation;
- the density-map term (:meth:`NumpyBackend.dm_collision_log1p` and
  :meth:`NumpyBackend.tree_sum`) is not reimplemented by any backend:
  every backend runs this class's ``np.log1p``/``np.sum`` code, so the
  backends agree because they execute the same numpy build. Between
  machines with different numpy builds that term may differ in the
  last ulp, like the other log-space code in the package;
- randomness is drawn from the caller's ``numpy.random.Generator`` in
  driver code and threaded into the kernels, never re-derived inside.

All array arguments are C-contiguous with the documented dtypes;
drivers guarantee this (count vectors come from the sketches' cached
views, scratch comes from :class:`repro.core.scratch.ScratchBuffer`).
Output arrays are owned by the caller: a backend must never retain a
reference to (or return a view of) any buffer it was handed. The
rounding temporaries live in per-thread scratch buffers owned by the
backend; the one array a rounding kernel allocates is
``reconcile_bulk``'s count table, one entry per value up to the
histogram's cap.
"""

from __future__ import annotations

import numpy as np

from repro.core.scratch import ScratchBuffer


class NumpyBackend:
    """Vectorized kernel backend (see module docstring for the contract)."""

    #: Registry name (``"numpy"``, ``"numba"``).
    name = "numpy"
    #: True when the kernels run as compiled machine code.
    compiled = False

    def __init__(self) -> None:
        # probabilistic-rounding temporaries.
        self._round_clip = ScratchBuffer(np.float64)
        self._round_floor = ScratchBuffer(np.float64)
        self._round_bump = ScratchBuffer(np.bool_)
        self._scale = ScratchBuffer(np.float64)

    # -- Algorithm 1 ----------------------------------------------------

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Dot product of two integer-valued float64 count vectors.

        Exact (hence order-independent) because every partial sum of
        products of counts stays below 2**53; BLAS accumulation order is
        machine-specific but irrelevant.
        """
        return float(a @ b)

    def subtract(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """``out[i] = a[i] - b[i]`` (float64; exact on integer-valued input)."""
        np.subtract(a, b, out=out)

    def dm_collision_log1p(
        self,
        v_a: np.ndarray,
        v_b: np.ndarray,
        neg_inv_cells: float,
        out: np.ndarray,
    ) -> bool:
        """Density-map collision probabilities, in log space.

        Writes ``out[i] = log1p((v_a[i] * v_b[i]) * neg_inv_cells)`` and
        returns True when any slice saturates (``<= -1``), in which case
        ``out`` is unspecified and the caller returns ``cells``.
        """
        np.multiply(v_a, v_b, out=out)
        np.multiply(out, neg_inv_cells, out=out)
        if out.size and out.min() <= -1.0:
            return True
        np.log1p(out, out=out)
        return False

    def tree_sum(self, values: np.ndarray) -> float:
        """Float64 sum of the density map's log-space terms (``np.sum``)."""
        return float(np.sum(values))

    # -- probabilistic rounding / Eq 11 scaling -------------------------

    def prob_round_into(
        self,
        values: np.ndarray,
        draws: np.ndarray,
        maximum: int,
        out: np.ndarray,
    ) -> None:
        """``out[i] = min(floor(max(values[i], 0)) + (draws[i] < frac), maximum)``.

        ``draws`` are the caller's uniform [0, 1) variates (one per entry,
        already consumed from the caller's generator); ``maximum < 0``
        disables the cap; ``out`` is an integer count vector (int32 for
        sketches). The bump and the cap are applied in float64, where they
        are exact, before the one cast into ``out``: a value above the
        count width is capped, never wrapped.
        """
        n = values.shape[0]
        clipped = self._round_clip.get(n)
        np.maximum(values, 0.0, out=clipped)
        floor = self._round_floor.get(n)
        np.floor(clipped, out=floor)
        np.subtract(clipped, floor, out=clipped)
        self._bump_cap_cast(draws, clipped, floor, maximum, out)

    def scale_round_into(
        self,
        histogram: np.ndarray,
        factor: float,
        draws: np.ndarray,
        maximum: int,
        out: np.ndarray,
    ) -> None:
        """Fused Eq 11 scale + probabilistic round of a count histogram.

        Equivalent to ``prob_round_into(histogram * factor, ...)`` for a
        non-negative histogram and factor ``>= 0`` (Eq 11's only inputs):
        the product is then never negative, so the clamp is skipped, and
        the fusion saves the intermediate array without changing a bit
        (integer-to-float64 conversion is exact for counts). A scaled
        entry may exceed the count width before its cap (a full row
        scaled towards a dense product), so it is capped in float64.
        """
        n = histogram.shape[0]
        scaled = self._scale.get(n)
        np.multiply(histogram, factor, out=scaled)
        floor = self._round_floor.get(n)
        np.floor(scaled, out=floor)
        np.subtract(scaled, floor, out=scaled)
        self._bump_cap_cast(draws, scaled, floor, maximum, out)

    def _bump_cap_cast(
        self,
        draws: np.ndarray,
        frac: np.ndarray,
        floor: np.ndarray,
        maximum: int,
        out: np.ndarray,
    ) -> None:
        """``out = min(floor + (draws < frac), maximum)``, computed in
        float64 (exact for integer values below 2**53) and cast once."""
        bump = self._round_bump.get(floor.shape[0])
        np.less(draws, frac, out=bump)
        np.add(floor, bump, out=floor)
        if maximum >= 0:
            np.minimum(floor, maximum, out=floor)
        np.copyto(out, floor, casting="unsafe")

    def reconcile_bulk(self, target: np.ndarray, remaining: int) -> int:
        """Bulk phase of ``_reconcile_totals`` (exact integer arithmetic).

        Finds the largest full-round count ``r`` with
        ``sum(min(target, r)) <= remaining``, applies
        ``target = max(target - r, 0)`` in place, and returns the units
        still to remove (``_reconcile_totals``' random partial round).

        ``sum(min(target, r))`` is the number of entries ``>= t`` summed
        over ``t = 1..r``, so one ``bincount`` of *target* and two
        ``cumsum``s give it for every ``r`` at once. *target* is a
        non-negative count vector capped by Eq 11's ``maximum`` (the
        opposing dimension), so the pass is ``O(m + n)``. Every round up
        to ``max(target)`` removes at least one unit, so only the first
        ``min(max(target), remaining)`` rounds can fit and the ``cumsum``s
        stop there.
        """
        counts = np.bincount(target)
        # In place: removed[t - 1] = entries >= t, then
        # removed[r - 1] = sum(min(target, r)).
        removed = counts[: min(counts.size - 1, remaining)]
        np.cumsum(removed, out=removed)
        np.subtract(target.shape[0], removed, out=removed)
        np.cumsum(removed, out=removed)
        rounds = int(np.searchsorted(removed, remaining, side="right"))
        if rounds > 0:
            remaining -= int(removed[rounds - 1])
            np.subtract(target, rounds, out=target)
            np.maximum(target, 0, out=target)
        return int(remaining)

    # -- bitset popcount kernels ----------------------------------------

    def popcount_sum(self, bits: np.ndarray) -> int:
        """Total set bits of a packed uint8 bit matrix."""
        return int(np.bitwise_count(bits).sum())

    def or_popcount(self, bits: np.ndarray) -> int:
        """Set bits of the OR of all rows of a packed uint8 bit matrix."""
        if bits.shape[0] == 0:
            return 0
        merged = np.bitwise_or.reduce(bits, axis=0)
        return int(np.bitwise_count(merged).sum())

    def bitset_block_or(
        self,
        block: np.ndarray,
        b_bits: np.ndarray,
        out: np.ndarray,
        start: int,
    ) -> None:
        """Boolean matmul of an unpacked row block against packed B.

        For each row ``r`` of the boolean ``block``,
        ``out[start + r] |= b_bits[k]`` for every ``k`` with
        ``block[r, k]`` set.
        """
        for offset in range(block.shape[0]):
            k_indices = np.flatnonzero(block[offset])
            if k_indices.size == 0:
                continue
            out[start + offset] = np.bitwise_or.reduce(b_bits[k_indices], axis=0)

    # -- lifecycle ------------------------------------------------------

    def warmup(self) -> None:
        """Touch every primitive once on tiny inputs.

        For compiled backends this forces JIT compilation (or loads the
        on-disk cache) so first-request latency and benchmark timings
        exclude compile time.
        """
        v = np.array([3.0, 0.0, 1.0, 2.0], dtype=np.float64)
        w = np.array([1.0, 2.0, 0.0, 1.0], dtype=np.float64)
        scratch = np.empty(4, dtype=np.float64)
        self.dot(v, w)
        self.subtract(v, w, scratch)
        self.dm_collision_log1p(v, w, -0.125, scratch)
        self.tree_sum(scratch)
        draws = np.array([0.1, 0.9, 0.5, 0.2], dtype=np.float64)
        out_i = np.empty(4, dtype=np.int32)
        self.prob_round_into(v, draws, -1, out_i)
        hist = np.array([4, 0, 2, 1], dtype=np.int32)
        self.scale_round_into(hist, 0.5, draws, 3, out_i)
        self.reconcile_bulk(out_i, 1)
        bits = np.array([[3, 1], [0, 255]], dtype=np.uint8)
        self.popcount_sum(bits)
        self.or_popcount(bits)
        block = np.array([[True, False]], dtype=np.bool_)
        self.bitset_block_or(block, bits, np.zeros((1, 2), dtype=np.uint8), 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r} compiled={self.compiled}>"

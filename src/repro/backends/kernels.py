"""Exact-kernel definitions shared by the kernel backends.

Every function here is written in the numba-compatible subset of Python
(flat loops, scalar math, basic indexing, ``np.zeros``) and is entirely
self-contained — kernels never call each other, so each one can be
independently wrapped with ``numba.njit(cache=True)`` (the ``numba``
backend) or run as-is under the interpreter (a directly constructed
``KernelBackend()``, which keeps the definitions testable on machines
without numba).

Byte-identity with the numpy backend holds through exact arithmetic:
integer-valued float64 and int64 sums are exact (count entries are read
through ``int()``, so a sum of int32 counts accumulates in int64),
bitwise ORs are exact, and the rounding kernels' element-wise float
steps mirror the numpy sequence op for op. The density-map term has no
kernel here: every backend runs the numpy implementation of it (see
``repro.backends.numpy_backend``).
"""

from __future__ import annotations

import numpy as np


def dot_f64(a, b):
    """Dot product of integer-valued float64 vectors (exact, order-free)."""
    acc = 0.0
    for i in range(a.shape[0]):
        acc += a[i] * b[i]
    return acc


def subtract_f64(a, b, out):
    """``out[i] = a[i] - b[i]`` (exact on integer-valued float64)."""
    for i in range(a.shape[0]):
        out[i] = a[i] - b[i]


def prob_round_into(values, draws, maximum, out):
    """Probabilistic rounding with threaded-in uniform draws.

    ``out[i] = min(floor(max(values[i], 0)) + (draws[i] < frac), maximum)``
    with ``maximum < 0`` meaning "no cap". Mirrors the numpy backend's
    sequence: clamp, floor, fractional part, compare, truncating cast.
    """
    for i in range(values.shape[0]):
        x = values[i]
        if x < 0.0:
            x = 0.0
        f = np.floor(x)
        r = int(f)
        if draws[i] < x - f:
            r = r + 1
        if maximum >= 0 and r > maximum:
            r = maximum
        out[i] = r


def scale_round_into(histogram, factor, draws, maximum, out):
    """Fused Eq 11 scale + probabilistic round of a count histogram.

    ``histogram[i] * factor`` (integer-to-float64 conversion is exact for
    counts) followed by the rounding sequence of :func:`prob_round_into`
    minus its clamp: Eq 11 scales non-negative counts by a factor
    ``>= 0``, so ``x`` is never negative and the result is bit for bit
    the unfused one. The cap applies to the wide integer ``r``, before
    the store into the (int32) count vector.
    """
    for i in range(histogram.shape[0]):
        x = histogram[i] * factor
        f = np.floor(x)
        r = int(f)
        if draws[i] < x - f:
            r = r + 1
        if maximum >= 0 and r > maximum:
            r = maximum
        out[i] = r


def reconcile_bulk(target, remaining):
    """Bulk phase of histogram-total reconciliation (exact integers).

    Binary-searches the largest per-entry decrement ``r`` whose total
    removal ``sum(min(target, r))`` still fits in *remaining*, applies
    it in place (``target = max(target - r, 0)``), and returns the units
    left for the driver's random partial round. Entries are read through
    ``int()``: the removal totals outgrow an int32 count vector's width.
    """
    n = target.shape[0]
    hi = 0
    for i in range(n):
        v = int(target[i])
        if v > hi:
            hi = v
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        removed = 0
        for i in range(n):
            v = int(target[i])
            if v < mid:
                removed += v
            else:
                removed += mid
        if removed <= remaining:
            lo = mid
        else:
            hi = mid - 1
    if lo > 0:
        removed = 0
        for i in range(n):
            v = int(target[i])
            if v < lo:
                c = v
            else:
                c = lo
            removed += c
            target[i] = v - c
        remaining = remaining - removed
    return remaining


def popcount_sum_u8(bits):
    """Total set bits of a packed uint8 bit matrix (SWAR per byte)."""
    total = 0
    for i in range(bits.shape[0]):
        for j in range(bits.shape[1]):
            x = int(bits[i, j])
            x = (x & 0x55) + ((x >> 1) & 0x55)
            x = (x & 0x33) + ((x >> 2) & 0x33)
            total += (x + (x >> 4)) & 0x0F
    return total


def or_popcount_u8(bits):
    """Set bits of the OR of all rows of a packed uint8 bit matrix."""
    rows = bits.shape[0]
    words = bits.shape[1]
    merged = np.zeros(words, dtype=np.uint8)
    for i in range(rows):
        for j in range(words):
            merged[j] |= bits[i, j]
    total = 0
    for j in range(words):
        x = int(merged[j])
        x = (x & 0x55) + ((x >> 1) & 0x55)
        x = (x & 0x33) + ((x >> 2) & 0x33)
        total += (x + (x >> 4)) & 0x0F
    return total


def bitset_block_or(block, b_bits, out, start):
    """Boolean matmul of an unpacked row block against packed B rows.

    ``out[start + r] |= b_bits[k]`` for every set ``block[r, k]`` —
    bitwise OR is exact, so any evaluation order matches numpy.
    """
    rows = block.shape[0]
    n = block.shape[1]
    words = b_bits.shape[1]
    for r in range(rows):
        for k in range(n):
            if block[r, k]:
                for j in range(words):
                    out[start + r, j] |= b_bits[k, j]

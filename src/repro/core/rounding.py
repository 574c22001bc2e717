"""Probabilistic rounding shared by all sketch-propagation rules.

Deterministic rounding of fractional count vectors introduces systematic
bias for ultra-sparse matrices: a vector whose entries are all 0.4 rounds to
all-zero, which propagates into an (incorrectly) empty intermediate. The
paper instead rounds entry ``x`` up with probability ``frac(x)``, which is
unbiased (``E[round(x)] = x``) with minimal variance.

The kernel is allocation-aware and backend-dispatched: the uniform draws
are generated straight into reused per-thread scratch with
``Generator.random(out=...)`` (the same stream, and therefore the same
rounding decisions, as the naive formulation) and handed to the active
backend's ``prob_round_into`` primitive, which clamps, floors, and
applies the Bernoulli bumps without re-deriving any randomness.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.backends import get_backend
from repro.core.scratch import ScratchBuffer
from repro.core.sketch import COUNT_DTYPE, COUNT_MAX

SeedLike = Union[int, np.random.Generator, None]

_DRAW_SCRATCH = ScratchBuffer(np.float64)


def resolve_rng(seed: SeedLike) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for *seed* (pass-through for
    generators, fresh default generator for ``None``)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def probabilistic_round(
    values: np.ndarray,
    rng: SeedLike = None,
    maximum: Optional[int] = None,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Round non-negative *values* to integers without systematic bias.

    Each entry ``x`` becomes ``floor(x) + Bernoulli(x - floor(x))``, so the
    expectation is preserved exactly. Negative inputs (which can arise from
    floating-point noise in subtraction-based formulas) are clamped to zero
    first.

    Args:
        values: float vector of estimated counts.
        rng: seed or generator driving the Bernoulli draws.
        maximum: optional per-entry cap (e.g. the row length), applied after
            rounding so a count can never exceed the physically possible one.
            The result is a count vector, so :data:`COUNT_MAX` caps it too.
        out: optional contiguous :data:`~repro.core.sketch.COUNT_DTYPE`
            vector of ``values.size`` entries to round into.

    Returns:
        :data:`~repro.core.sketch.COUNT_DTYPE` array of the same shape:
        *out*, or a freshly allocated one (the internal temporaries come
        from reused scratch buffers).
    """
    generator = resolve_rng(rng)
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape
    values = np.ascontiguousarray(values).reshape(-1)
    n = values.size
    # The draws land in scratch via Generator.random(out=...), which
    # consumes the stream identically to Generator.random(shape); threading
    # them into the backend keeps the rounding decisions byte-identical
    # across backends (the kernels never touch the generator).
    draws = _DRAW_SCRATCH.get(n)
    generator.random(out=draws)
    result = np.empty(n, dtype=COUNT_DTYPE) if out is None else out
    cap = COUNT_MAX if maximum is None else min(int(maximum), COUNT_MAX)
    get_backend().prob_round_into(values, draws, cap, result)
    return result.reshape(shape)

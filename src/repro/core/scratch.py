"""Reusable per-thread scratch buffers for allocation-free kernels.

The Algorithm 1 fallback, Eq 11 scaling, and probabilistic rounding all
work on temporary vectors sized by a matrix dimension. Allocating those
temporaries per call is the dominant constant-factor cost once sketches
are cached and validation is off the hot path, so each kernel call site
owns a :class:`ScratchBuffer`: a per-thread, geometrically grown array it
reuses across calls.

Rules of use:

- one :class:`ScratchBuffer` per *call site* (module-level constant), so
  two kernels can never alias each other's storage;
- a site must not call another function that borrows from the *same*
  buffer while a view is live (none of the kernels recurse);
- views returned by :meth:`ScratchBuffer.get` are only valid until the
  site's next ``get`` — never store or return them beyond the call that
  took them (the chain DP's workspace hands them to its intermediate
  sketches, none of which outlives the DP).

Buffers are thread-local: every thread that estimates (a server's
estimation thread, a caller's own DPs) gets private storage.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.observability.metrics import METRICS

_MIN_CAPACITY = 256

_REUSES = METRICS.cell("hotpath.scratch_reuses")


class ScratchBuffer(threading.local):
    """A per-thread growable scratch vector of a fixed dtype."""

    def __init__(self, dtype=np.float64) -> None:
        self._dtype = np.dtype(dtype)
        self._buf: np.ndarray | None = None

    def get(self, length: int) -> np.ndarray:
        """A writable, C-contiguous view of *length* entries.

        Contents are uninitialized; callers overwrite via ``out=`` forms.
        """
        buf = self._buf
        if buf is None or buf.size < length:
            capacity = max(length, _MIN_CAPACITY)
            if buf is not None:
                capacity = max(capacity, 2 * buf.size)
            self._buf = buf = np.empty(capacity, dtype=self._dtype)
        else:
            _REUSES.value += 1
        return buf[:length]

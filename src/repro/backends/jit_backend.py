"""Kernel backends: the exact kernels of ``repro.backends.kernels``.

:class:`KernelBackend` subclasses the numpy backend and replaces its
eight exact kernels (dot, subtract, the three rounding kernels, the two
popcounts and the block OR) with the loop definitions of
``repro.backends.kernels``, optionally wrapped by a jit. It inherits the
density-map term, so every backend runs the same numpy code there.

:class:`NumbaBackend` wraps the kernels with
``numba.njit(cache=True, nogil=True)``; it is the registered ``numba``
backend. A directly constructed ``KernelBackend()`` runs the same
definitions under the interpreter: no name selects it, but tests and the
``backends_agree`` contract pass it to
:func:`repro.backends.use_backend` to check the kernels against numpy on
machines without numba.

``nogil=True`` lets other Python threads run while a compiled kernel
does (a server's event loop keeps answering while its estimation thread
is inside one). ``cache=True``
persists compiled machine code next to ``kernels.py``, so only the
first process on a machine pays the compile; either way
``repro.backends.warmup()`` moves that cost out of the serving/benching
path and records it as ``backend.jit_compile_seconds``.
"""

from __future__ import annotations

from repro.backends import kernels as _k
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import BackendUnavailable


class KernelBackend(NumpyBackend):
    """Runs the shared exact-kernel definitions, optionally through a jit."""

    name = "kernels"

    def __init__(self, jit=None) -> None:
        super().__init__()
        wrap = (lambda fn: fn) if jit is None else jit
        self._dot = wrap(_k.dot_f64)
        self._subtract = wrap(_k.subtract_f64)
        self._prob_round = wrap(_k.prob_round_into)
        self._scale_round = wrap(_k.scale_round_into)
        self._reconcile = wrap(_k.reconcile_bulk)
        self._popcount = wrap(_k.popcount_sum_u8)
        self._or_popcount = wrap(_k.or_popcount_u8)
        self._block_or = wrap(_k.bitset_block_or)

    def dot(self, a, b):
        return float(self._dot(a, b))

    def subtract(self, a, b, out):
        self._subtract(a, b, out)

    def prob_round_into(self, values, draws, maximum, out):
        self._prob_round(values, draws, maximum, out)

    def scale_round_into(self, histogram, factor, draws, maximum, out):
        self._scale_round(histogram, factor, draws, maximum, out)

    def reconcile_bulk(self, target, remaining):
        return int(self._reconcile(target, remaining))

    def popcount_sum(self, bits):
        return int(self._popcount(bits))

    def or_popcount(self, bits):
        return int(self._or_popcount(bits))

    def bitset_block_or(self, block, b_bits, out, start):
        self._block_or(block, b_bits, out, start)


class NumbaBackend(KernelBackend):
    """The kernels compiled to machine code with numba.

    Compilation is lazy per signature (``warmup()`` forces it); compiled
    code is disk-cached beside ``kernels.py`` via ``cache=True``.
    """

    name = "numba"
    compiled = True

    def __init__(self) -> None:
        try:
            import numba
        except Exception as exc:  # ImportError or a broken install
            raise BackendUnavailable(
                f"numba backend requested but numba failed to import: {exc}"
            ) from exc
        super().__init__(jit=numba.njit(cache=True, nogil=True))

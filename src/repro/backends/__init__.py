"""Multi-backend kernel dispatch for the estimation hot paths.

``repro.backends`` hosts the kernel backend layer: the always-available
vectorized numpy backend, which also defines the interface
(:class:`~repro.backends.numpy_backend.NumpyBackend`), and a
numba-jitted backend that compiles the exact kernels. Selection is
driven by ``REPRO_BACKEND`` (see :mod:`repro.backends.registry`); the
backends are byte-identical on one machine — exact arithmetic in the
exact kernels, and the same numpy code for the density-map term.

Importing this package stays light: backend modules (and numba itself)
load lazily, on first activation.
"""

from __future__ import annotations

from repro.backends.registry import (
    AUTO_ORDER,
    BACKEND_ENV,
    REFERENCE_BACKEND,
    BackendUnavailable,
    available_backends,
    get_backend,
    numba_importable,
    register_backend,
    resolve_backend_name,
    set_backend,
    use_backend,
    warmup,
)

__all__ = [
    "AUTO_ORDER",
    "BACKEND_ENV",
    "BackendUnavailable",
    "REFERENCE_BACKEND",
    "available_backends",
    "get_backend",
    "numba_importable",
    "register_backend",
    "resolve_backend_name",
    "set_backend",
    "use_backend",
    "warmup",
]


def _numpy_factory():
    from repro.backends.numpy_backend import NumpyBackend

    return NumpyBackend()


def _numba_factory():
    from repro.backends.jit_backend import NumbaBackend

    return NumbaBackend()


register_backend("numpy", _numpy_factory)
register_backend("numba", _numba_factory, probe=numba_importable)

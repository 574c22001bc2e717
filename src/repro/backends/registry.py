"""Backend registry: selection, graceful fallback, and JIT warmup.

Selection rules (docs/PERFORMANCE.md "Backends"):

- ``REPRO_BACKEND=numpy|numba`` picks a backend explicitly (the CLI
  ``--backend`` flag sets the same variable so worker processes inherit
  it);
- unset or ``auto``: numba when importable, else numpy;
- a requested backend that is registered but fails to come up (for
  example numba's import breaking mid-selection) falls back to numpy
  with a one-time warning and a ``backend.fallbacks`` counter bump —
  estimation keeps working, just slower;
- an unknown name from the environment degrades the same way; passing
  an unknown name to :func:`set_backend` programmatically is an error.

The resolved backend is cached process-wide; ``set_backend(None)``
re-resolves from the environment (worker processes therefore pick their
backend up from the inherited ``REPRO_BACKEND``). Backend *instances*
are also cached per name, so switching back and forth (benchmarks, the
equivalence suite) never recompiles. :func:`use_backend` also takes a
backend instance, which is how the uncompiled kernels
(``KernelBackend()``) are run: no name selects them.
"""

from __future__ import annotations

import importlib.util
import os
import threading
import warnings
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Union

from repro.observability.metrics import metric_inc, metric_set
from repro.observability.trace import timed_span

if TYPE_CHECKING:
    from repro.backends.numpy_backend import NumpyBackend

#: Environment variable driving backend selection.
BACKEND_ENV = "REPRO_BACKEND"

#: The always-available reference backend every fallback lands on.
REFERENCE_BACKEND = "numpy"

#: Auto-detection preference order.
AUTO_ORDER = ("numba", "numpy")

_FACTORIES: Dict[str, Callable[[], NumpyBackend]] = {}
_PROBES: Dict[str, Callable[[], bool]] = {}
_INSTANCES: Dict[str, NumpyBackend] = {}
_ACTIVE: Optional[NumpyBackend] = None
_WARNED: set = set()
_LOCK = threading.Lock()


class BackendUnavailable(RuntimeError):
    """Raised by a backend factory whose runtime requirements are missing."""


def register_backend(
    name: str,
    factory: Callable[[], NumpyBackend],
    probe: Optional[Callable[[], bool]] = None,
) -> None:
    """Register a backend *factory* under *name*.

    *probe* is a cheap availability check (no heavy imports) used by
    auto-detection and :func:`available_backends`; the factory itself
    may still raise :class:`BackendUnavailable` when probing was too
    optimistic.
    """
    _FACTORIES[name] = factory
    _PROBES[name] = probe if probe is not None else (lambda: True)


def available_backends() -> Dict[str, bool]:
    """Registered backend names mapped to cheap availability probes."""
    return {name: bool(_PROBES[name]()) for name in sorted(_FACTORIES)}


def numba_importable() -> bool:
    """Whether a numba distribution is present (without importing it)."""
    return importlib.util.find_spec("numba") is not None


def resolve_backend_name(requested: Optional[str] = None) -> str:
    """The backend name selection would pick for *requested* (or the env)."""
    name = requested if requested is not None else os.environ.get(BACKEND_ENV, "")
    name = (name or "").strip().lower()
    if not name or name == "auto":
        for candidate in AUTO_ORDER:
            if candidate in _FACTORIES and _PROBES[candidate]():
                return candidate
        return REFERENCE_BACKEND
    return name


def _warn_once(key: str, message: str) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _instantiate(name: str) -> NumpyBackend:
    backend = _INSTANCES.get(name)
    if backend is None:
        backend = _FACTORIES[name]()
        _INSTANCES[name] = backend
    return backend


def _activate(name: str, from_env: bool) -> NumpyBackend:
    global _ACTIVE
    with _LOCK:
        if name not in _FACTORIES:
            if not from_env:
                raise ValueError(
                    f"unknown backend {name!r}; registered: {sorted(_FACTORIES)}"
                )
            _warn_once(
                f"unknown:{name}",
                f"{BACKEND_ENV}={name!r} names no registered backend "
                f"(registered: {sorted(_FACTORIES)}); "
                f"falling back to {REFERENCE_BACKEND}",
            )
            metric_inc("backend.fallbacks")
            backend = _instantiate(REFERENCE_BACKEND)
        else:
            try:
                backend = _instantiate(name)
            except BackendUnavailable as exc:
                _warn_once(
                    f"unavailable:{name}",
                    f"backend {name!r} is unavailable ({exc}); "
                    f"falling back to {REFERENCE_BACKEND}",
                )
                metric_inc("backend.fallbacks")
                backend = _instantiate(REFERENCE_BACKEND)
        _ACTIVE = backend
        metric_set("backend.compiled", 1.0 if backend.compiled else 0.0)
        metric_inc(f"backend.selected.{backend.name}")
        return backend


def get_backend() -> NumpyBackend:
    """The process-wide active backend (resolving it on first use)."""
    backend = _ACTIVE
    if backend is not None:
        return backend
    return _activate(resolve_backend_name(), from_env=True)


def set_backend(name: Optional[str]) -> NumpyBackend:
    """Select a backend by name; ``None`` re-resolves from the environment.

    An unknown *name* raises ``ValueError``; a registered-but-unavailable
    one (numba missing) falls back to the reference backend with a
    one-time warning, mirroring the environment-variable semantics.
    """
    global _ACTIVE
    if name is None:
        with _LOCK:
            _ACTIVE = None
        return get_backend()
    return _activate(resolve_backend_name(name), from_env=False)


@contextmanager
def use_backend(backend: Union[str, NumpyBackend]) -> Iterator[NumpyBackend]:
    """Temporarily activate *backend*, a registered name or an instance.

    Restores the previous backend on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    if isinstance(backend, str):
        backend = set_backend(backend)
    else:
        with _LOCK:
            _ACTIVE = backend
    try:
        yield backend
    finally:
        with _LOCK:
            _ACTIVE = previous


def warmup() -> float:
    """Force-compile the active backend's kernels; returns the seconds spent.

    Called by ``repro serve`` startup and the benchmark harness so
    first-request latency and timings exclude JIT compile time. The
    duration is recorded as the ``backend.jit_compile_seconds`` gauge
    and traced as a ``backend.warmup`` span.
    """
    backend = get_backend()
    with timed_span("backend.warmup", backend=backend.name) as span:
        backend.warmup()
    seconds = float(span.seconds or 0.0)
    metric_set("backend.jit_compile_seconds", seconds)
    metric_inc("backend.warmups")
    return seconds

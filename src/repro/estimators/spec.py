"""Unified estimator selection: the :class:`EstimatorSpec` value object.

Every surface that lets a caller pick an estimator — ``EstimationService``,
``ServiceRequest``, the serve wire protocol, the SparsEst runner, and the
CLI flags — historically grew its own slightly different string/kwargs
convention. :class:`EstimatorSpec` is the one value object they all parse
into: a frozen, hashable, picklable record of *which* estimator
(``name``), *how configured* (``options``), *how accurate it must be*
(``tolerance``, adaptive routing only), and *under which seed*
(``seed``).

``EstimatorSpec.parse`` accepts every historical call form:

- a registry name string (``"mnc"``),
- a wire-protocol dict (``{"name": "auto", "tolerance": 0.1}``),
- an existing spec (idempotent).

The pseudo-name ``"auto"`` selects adaptive routing (see
:mod:`repro.router`); it is deliberately *not* in the estimator registry —
``available_estimators()`` stays the authoritative list of concrete
estimators, and the contract fuzzer keeps fuzzing only those.

Note: :class:`repro.verify.contracts.EstimatorSpec` is a different,
verify-internal record (estimator-under-test + factory for the fuzz
engine). This module is the caller-facing selection API.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import EstimatorOptionError, UnknownEstimatorError
from repro.estimators.base import (
    SparsityEstimator,
    available_estimators,
    make_estimator,
)

#: The routing pseudo-estimator name understood by every spec-aware surface.
AUTO_NAME = "auto"

_WIRE_KEYS = frozenset({"name", "estimator", "options", "tolerance", "seed"})


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator selection, normalized.

    Args:
        name: registry name (see :func:`available_estimators`) or
            ``"auto"`` for adaptive routing.
        options: constructor keyword arguments as a sorted tuple of
            ``(key, value)`` pairs (a mapping is normalized); for
            ``"auto"``, router options such as ``probe``.
        tolerance: maximum acceptable relative interval width for routed
            estimates; only meaningful with ``name="auto"``.
        seed: base seed; routed per-expression, or injected into the
            estimator constructor when it accepts a ``seed`` keyword.
    """

    name: str
    options: Tuple[Tuple[str, Any], ...] = ()
    tolerance: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        options = self.options
        if isinstance(options, Mapping):
            options = tuple(sorted(options.items()))
        else:
            try:
                options = tuple(sorted((str(k), v) for k, v in options))
            except (TypeError, ValueError):
                raise EstimatorOptionError(
                    f"options must be a mapping or (key, value) pairs, "
                    f"got {self.options!r}"
                ) from None
        object.__setattr__(self, "options", options)
        if self.tolerance is not None:
            try:
                tolerance = float(self.tolerance)
            except (TypeError, ValueError):
                raise EstimatorOptionError(
                    f"tolerance must be a number, got {self.tolerance!r}"
                ) from None
            if not math.isfinite(tolerance) or tolerance < 0.0:
                raise EstimatorOptionError(
                    f"tolerance must be finite and >= 0, got {tolerance}"
                )
            object.__setattr__(self, "tolerance", tolerance)
        if self.seed is not None:
            try:
                object.__setattr__(self, "seed", int(self.seed))
            except (TypeError, ValueError):
                raise EstimatorOptionError(
                    f"seed must be an integer, got {self.seed!r}"
                ) from None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def parse(
        cls,
        value: Union["EstimatorSpec", str, Mapping, None],
        *,
        tolerance: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> "EstimatorSpec":
        """Normalize any historical estimator-selection form into a spec.

        *tolerance* / *seed* keyword arguments override the parsed values
        when given (the CLI-flag path). ``None`` parses to ``auto`` when a
        *tolerance* is given (tolerance is a routing concept) and to
        ``mnc`` otherwise.
        """
        if value is None:
            spec = cls(name=AUTO_NAME if tolerance is not None else "mnc")
        elif isinstance(value, cls):
            spec = value
        elif isinstance(value, str):
            name = value.strip()
            if not name:
                raise EstimatorOptionError("estimator name must be non-empty")
            spec = cls(name=name)
        elif isinstance(value, Mapping):
            spec = cls._from_mapping(value)
        elif isinstance(value, SparsityEstimator):
            raise EstimatorOptionError(
                "estimator instances cannot be parsed into an EstimatorSpec; "
                "pass the instance directly where supported, or use its "
                "registry name"
            )
        else:
            raise EstimatorOptionError(
                f"cannot parse estimator selection from {type(value).__name__}"
            )
        if tolerance is not None:
            spec = replace(spec, tolerance=tolerance)
        if seed is not None:
            spec = replace(spec, seed=seed)
        spec.validate()
        return spec

    @classmethod
    def _from_mapping(cls, payload: Mapping) -> "EstimatorSpec":
        unknown = sorted(set(payload) - _WIRE_KEYS)
        if unknown:
            raise EstimatorOptionError(
                f"unknown estimator spec fields {unknown}; "
                f"expected a subset of {sorted(_WIRE_KEYS)}"
            )
        if ("name" in payload) == ("estimator" in payload):
            raise EstimatorOptionError(
                "estimator spec needs exactly one of 'name' or 'estimator'"
            )
        name = payload.get("name", payload.get("estimator"))
        if not isinstance(name, str) or not name.strip():
            raise EstimatorOptionError(
                f"estimator name must be a non-empty string, got {name!r}"
            )
        options = payload.get("options", ())
        if options and not isinstance(options, Mapping):
            raise EstimatorOptionError(
                f"'options' must be an object, got {type(options).__name__}"
            )
        return cls(
            name=name.strip(),
            options=options,
            tolerance=payload.get("tolerance"),
            seed=payload.get("seed"),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_auto(self) -> bool:
        """Whether this spec selects adaptive routing."""
        return self.name == AUTO_NAME

    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    @property
    def key(self) -> str:
        """Canonical identity string (memo keys, derived-service caches)."""
        parts = [f"{k}={v!r}" for k, v in self.options]
        if self.tolerance is not None:
            parts.append(f"tolerance={self.tolerance!r}")
        if self.seed is not None:
            parts.append(f"seed={self.seed!r}")
        if not parts:
            return self.name
        return f"{self.name}({','.join(parts)})"

    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe wire form (the dict :meth:`parse` accepts back)."""
        payload: Dict[str, Any] = {"name": self.name}
        if self.options:
            payload["options"] = self.options_dict()
        if self.tolerance is not None:
            payload["tolerance"] = self.tolerance
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    # ------------------------------------------------------------------
    # Validation and materialization
    # ------------------------------------------------------------------

    def validate(self) -> "EstimatorSpec":
        """Check the name against the registry and option coherence."""
        if not self.is_auto and self.name not in available_estimators():
            raise UnknownEstimatorError(
                f"unknown estimator {self.name!r}; available: "
                f"{available_estimators()} (plus 'auto' for adaptive routing)",
                details={
                    "estimator": self.name,
                    "available_estimators": available_estimators(),
                },
            )
        if self.tolerance is not None and not self.is_auto:
            raise EstimatorOptionError(
                f"'tolerance' is only meaningful with estimator='auto' "
                f"(got estimator={self.name!r})",
                details={"estimator": self.name},
            )
        return self

    def make(self) -> SparsityEstimator:
        """Instantiate the concrete estimator this spec selects.

        ``seed`` is injected into the constructor when the estimator
        accepts a ``seed`` keyword and the options do not already pin one.
        Auto specs are routed, not instantiated — build an
        :class:`repro.router.AdaptiveRouter` from the spec instead.
        """
        self.validate()
        if self.is_auto:
            raise EstimatorOptionError(
                "estimator='auto' is routed, not instantiated; build an "
                "AdaptiveRouter (repro.router) from this spec instead"
            )
        options = self.options_dict()
        if self.seed is not None and "seed" not in options:
            if estimator_accepts_seed(self.name):
                options["seed"] = self.seed
        return make_estimator(self.name, **options)


def estimator_accepts_seed(name: str) -> bool:
    """Whether the registered factory takes a ``seed`` keyword."""
    from repro.estimators.base import _REGISTRY

    factory = _REGISTRY.get(name)
    if factory is None:
        return False
    try:
        return "seed" in inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic factories
        return False

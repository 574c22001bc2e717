"""The router's accuracy/cost ladder over the registered estimators.

The paper's estimators form a spectrum from free metadata formulas to the
exact oracle. :data:`TIER_LADDER` orders a representative subset of that
spectrum by cost; the :class:`~repro.router.adaptive.AdaptiveRouter` walks
it bottom-up, escalating only while its uncertainty about the current
tier's answer exceeds the caller's tolerance.

``prior_error`` is each tier's default multiplicative error band (the
factor by which estimate and truth may differ) used before the
:class:`~repro.router.policy.RoutingPolicy` has observed any residuals
for that tier; the numbers are deliberately conservative readings of the
paper's accuracy figures, and learned statistics replace them as soon as
the residual ledger has data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.estimators.base import (
    SparsityEstimator,
    available_estimators,
    make_estimator,
)
from repro.ir.nodes import Expr
from repro.opcodes import Op


@dataclass(frozen=True)
class Tier:
    """One rung of the router's escalation ladder.

    Args:
        name: registry name of the tier's estimator.
        label: estimator display name (``SparsityEstimator.name``).
        cost: ladder position; strictly increasing with expected runtime.
        prior_error: default multiplicative error band before the policy
            has residual observations for this tier.
        seeded: whether the estimator constructor takes a ``seed``.
        structural: how the router derives an uncertainty width for this
            tier — ``"metadata"`` (MetaAC/MetaWC bracket), ``"mnc"``
            (Theorem 3.2 interval where applicable), ``"exact"``
            (zero width), or ``""`` (policy band only).
    """

    name: str
    label: str
    cost: int
    prior_error: float
    seeded: bool
    structural: str = ""


TIER_LADDER: Tuple[Tier, ...] = (
    Tier("meta_ac", "MetaAC", 0, 8.0, False, "metadata"),
    Tier("density_map", "DMap", 1, 3.0, False, ""),
    Tier("sampling", "Sample", 2, 2.5, True, ""),
    Tier("hash", "Hash", 3, 2.0, True, ""),
    Tier("mnc", "MNC", 4, 1.2, True, "mnc"),
    Tier("exact", "Exact", 5, 1.0, False, "exact"),
)

_TIER_BY_NAME: Dict[str, Tier] = {tier.name: tier for tier in TIER_LADDER}

# Capability probes: one throwaway instance per ladder estimator, used only
# for supports()/supports_propagation() checks (never fed matrices).
_PROBES: Dict[str, SparsityEstimator] = {}


def _probe(name: str) -> SparsityEstimator:
    probe = _PROBES.get(name)
    if probe is None:
        probe = make_estimator(name)
        _PROBES[name] = probe
    return probe


def tier_by_name(name: str) -> Optional[Tier]:
    """The ladder tier backed by estimator *name*, if any."""
    return _TIER_BY_NAME.get(name)


def admissible_tiers(root: Expr) -> List[Tier]:
    """The ladder restricted to tiers that can evaluate *root*'s DAG: direct
    estimation of the root op, synopsis propagation everywhere else.

    Never empty: the exact oracle supports every operation.
    """
    # One walk for the whole ladder: routing a cheap expression is only a
    # few metadata builds, so per-tier DAG walks would dominate it.
    inner_ops = {
        node.op
        for node in root.postorder()
        if node is not root and node.op is not Op.LEAF
    }
    admissible = []
    for tier in TIER_LADDER:
        probe = _probe(tier.name)
        if root.op is not Op.LEAF and not probe.supports(root.op):
            continue
        if all(probe.supports_propagation(op) for op in inner_ops):
            admissible.append(tier)
    return admissible


def estimator_catalog() -> List[Dict[str, object]]:
    """Rows for ``repro estimators``: every registered estimator with its
    display label, contract tags, and ladder cost tier (``None`` when the
    estimator is not on the router's ladder)."""
    rows: List[Dict[str, object]] = []
    for name in available_estimators():
        probe = _probe(name)
        tier = _TIER_BY_NAME.get(name)
        rows.append(
            {
                "name": name,
                "label": probe.name,
                "tags": sorted(probe.contract_tags),
                "cost_tier": tier.cost if tier is not None else None,
            }
        )
    return rows

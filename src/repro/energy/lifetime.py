"""Network-lifetime and load-balance experiments.

Runs a dissemination algorithm under per-node energy budgets and
reports the WSN-standard metrics: rounds to first depletion, delivery
success within budget, and the energy-use skew across nodes.  The
head-rotation ablation — the clustering literature's answer to head
burnout — compares static vs rotating head sets on otherwise identical
scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.engine import DynamicNetwork, run
from ..sim.node import AlgorithmFactory
from .budget import EnergyLimitedNode, make_energy_factory

__all__ = ["LifetimeReport", "run_with_budget"]


@dataclass
class LifetimeReport:
    """Energy outcome of one budgeted run.

    Attributes
    ----------
    complete:
        Whether dissemination finished within the budgets.
    completion_round:
        When it did (or ``None``).
    first_depletion_round:
        Round at which the first node stopped transmitting — the
        "network lifetime" under the first-death definition (``None`` if
        nobody depleted).
    depleted_count:
        Nodes that hit their budget.
    spent_total, spent_max, spent_mean:
        Energy accounting across nodes.
    load_skew:
        ``spent_max / spent_mean`` (1.0 = perfectly balanced); the
        quantity head rotation is meant to push down.
    per_node_spent:
        Full per-node expenditure, for distribution plots.
    """

    complete: bool
    completion_round: Optional[int]
    first_depletion_round: Optional[int]
    depleted_count: int
    spent_total: float
    spent_max: float
    spent_mean: float
    load_skew: float
    per_node_spent: Dict[int, float]


def run_with_budget(
    network: DynamicNetwork,
    base_factory: AlgorithmFactory,
    k: int,
    initial,
    max_rounds: int,
    budget: float,
    budgets: Optional[Dict[int, float]] = None,
    **run_kwargs,
) -> LifetimeReport:
    """Execute a budgeted run and compute the lifetime report.

    Extra keyword arguments (``stop_when_complete``, ``link``, …) are
    forwarded to :func:`repro.sim.engine.run`.
    """
    factory = make_energy_factory(base_factory, budget=budget, budgets=budgets)
    result = run(
        network, factory, k=k, initial=initial, max_rounds=max_rounds,
        **run_kwargs,
    )
    algs = result.algorithms
    assert algs is not None
    nodes: List[EnergyLimitedNode] = [a for a in algs.values()]  # type: ignore[misc]
    spent = {a.node: a.spent for a in nodes}
    depletions = [a.depleted_at for a in nodes if a.depleted_at is not None]
    mean = sum(spent.values()) / max(len(spent), 1)
    mx = max(spent.values(), default=0.0)
    return LifetimeReport(
        complete=result.complete,
        completion_round=result.metrics.completion_round,
        first_depletion_round=min(depletions) if depletions else None,
        depleted_count=len(depletions),
        spent_total=sum(spent.values()),
        spent_max=mx,
        spent_mean=mean,
        load_skew=(mx / mean) if mean > 0 else 1.0,
        per_node_spent=spent,
    )

"""Hierarchy statistics extracted from any clustered trace.

Where :class:`~repro.clustering.maintenance.MaintenanceStats` accumulates
online during maintenance, :func:`hierarchy_stats` measures a finished
clustered trace (from any source — the HiNet generator, maintenance, or a
hand-built scenario).  The outputs are the paper's Table 1 quantities —
θ, :math:`n_m`, :math:`n_r` — plus the realized stability interval and hop
bound, i.e. the empirical (T, L) classification of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..graphs.ctvg import CTVG
from ..graphs.properties import max_block_stable_hierarchy, realized_hop_bound
from ..sim.topology import GraphTrace

__all__ = ["HierarchyStats", "hierarchy_stats"]


@dataclass(frozen=True)
class HierarchyStats:
    """Empirical model parameters of a clustered trace.

    Attributes
    ----------
    n:
        Node count (:math:`n_0`).
    theta:
        Distinct nodes ever serving as head (empirical θ lower bound).
    mean_heads:
        Average simultaneous head count.
    mean_members:
        Average plain-member count per round (:math:`n_m`).
    mean_reaffiliations:
        Mean cluster switches per ever-member node (:math:`n_r`).
    stable_T:
        Largest aligned-block ``T`` with a stable hierarchy (Definition 4).
    hop_bound_L:
        Realized ``L`` of Definition 7 at interval ``stable_T``; ``None``
        if head connectivity fails for some block.
    """

    n: int
    theta: int
    mean_heads: float
    mean_members: float
    mean_reaffiliations: float
    stable_T: int
    hop_bound_L: Optional[int]

    def as_cost_params(self, k: int, alpha: int = 1) -> dict:
        """Package into keyword arguments for the Table 2 cost model."""
        return {
            "n0": self.n,
            "theta": self.theta,
            "nm": self.mean_members,
            "nr": self.mean_reaffiliations,
            "k": k,
            "alpha": alpha,
            "L": self.hop_bound_L if self.hop_bound_L else 1,
        }


def hierarchy_stats(trace: GraphTrace) -> HierarchyStats:
    """Measure a clustered trace; raises if the trace lacks hierarchy info."""
    ctvg = CTVG(trace, validate=False)
    horizon = trace.horizon
    mean_heads = sum(len(ctvg.head_set(t)) for t in range(horizon)) / horizon
    stable_T = max_block_stable_hierarchy(trace)
    return HierarchyStats(
        n=trace.n,
        theta=len(ctvg.distinct_heads()),
        mean_heads=mean_heads,
        mean_members=ctvg.mean_member_count(),
        mean_reaffiliations=ctvg.mean_reaffiliations(),
        stable_T=stable_T,
        hop_bound_L=realized_hop_bound(trace, stable_T),
    )

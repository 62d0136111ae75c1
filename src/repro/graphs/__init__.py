"""Dynamic-graph models, traces, property checkers, and scenario generators.

* :class:`~repro.sim.topology.GraphTrace` — concrete per-round snapshots
  (what the engine executes on).
* :class:`~repro.graphs.tvg.TVG` / :class:`~repro.graphs.ctvg.CTVG` — the
  paper's formal models (Definition 1) as views over a trace.
* :mod:`repro.graphs.properties` — machine-checkable Definitions 2–8 plus
  KLO T-interval connectivity.
* :mod:`repro.graphs.generators` — verified scenario constructors.
"""

from .adversary import KnowledgeClusteringAdversary, QuarantineAdversary
from .ctvg import CTVG
from .dynamic_diameter import backbone_dynamic_diameter, dynamic_diameter, flood_times
from .properties import (
    cluster_stable,
    definition_report,
    head_connected,
    head_connectivity_witness,
    head_hop_distance,
    head_set_stable,
    hierarchy_stable,
    is_T_interval_connected,
    is_T_L_head_connected,
    is_hinet,
    max_block_stable_hierarchy,
    max_interval_connectivity,
    realized_hop_bound,
    windows_of,
)
from .tvg import TVG

__all__ = [
    "CTVG",
    "KnowledgeClusteringAdversary",
    "QuarantineAdversary",
    "TVG",
    "backbone_dynamic_diameter",
    "cluster_stable",
    "definition_report",
    "dynamic_diameter",
    "flood_times",
    "head_connected",
    "head_connectivity_witness",
    "head_hop_distance",
    "head_set_stable",
    "hierarchy_stable",
    "is_T_L_head_connected",
    "is_T_interval_connected",
    "is_hinet",
    "max_block_stable_hierarchy",
    "max_interval_connectivity",
    "realized_hop_bound",
    "windows_of",
]

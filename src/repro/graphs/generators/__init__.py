"""Scenario generators: verified instances of each dynamic-network model class.

Every generator returns a :class:`~repro.sim.topology.GraphTrace` (or a
:class:`~repro.graphs.generators.hinet.HiNetScenario` wrapping one) whose
claimed model membership — (T, L)-HiNet, T-interval connected,
1-interval connected, edge-Markovian — is re-checkable with
:mod:`repro.graphs.properties` and asserted in the test suite.
"""

from .hinet import HiNetParams, HiNetScenario, generate_hinet
from .interval import t_interval_trace
from .markovian import edge_markovian_trace, stationary_density
from .partitioned import partitioned_trace
from .static import (
    complete_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_spanning_tree,
    ring_graph,
    static_trace,
)
from .worstcase import bottleneck_trace, rotating_star_trace, shuffled_path_trace

__all__ = [
    "HiNetParams",
    "HiNetScenario",
    "bottleneck_trace",
    "complete_graph",
    "edge_markovian_trace",
    "erdos_renyi",
    "generate_hinet",
    "grid_graph",
    "partitioned_trace",
    "path_graph",
    "random_connected_graph",
    "random_spanning_tree",
    "ring_graph",
    "rotating_star_trace",
    "shuffled_path_trace",
    "static_trace",
    "stationary_density",
    "t_interval_trace",
]

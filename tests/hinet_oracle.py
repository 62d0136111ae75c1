"""A naive networkx oracle for Definitions 5–8 and blocks T-interval
connectivity: one window at a time, an explicit intersection graph, one
BFS per head and a Kruskal MST over the head-to-head distance metric.

This is the reading of the definitions the window kernel in
:mod:`repro.graphs.properties` must reproduce; it is slow on purpose and
only the tests use it.
"""

from typing import FrozenSet, Optional

import networkx as nx

from repro.graphs.properties import hierarchy_stable, windows_of
from repro.sim.topology import GraphTrace


def intersection_graph(trace: GraphTrace, start: int, stop: int) -> nx.Graph:
    """Edges present in every round of ``[start, stop)`` (the Υ universe)."""
    common = None
    for r in range(start, stop):
        edges = trace.snapshot(r).edge_set()
        common = edges if common is None else common & edges
    g = nx.Graph()
    g.add_nodes_from(range(trace.n))
    g.add_edges_from(common or ())
    return g


def witness(trace: GraphTrace, start: int, stop: int) -> Optional[nx.Graph]:
    """The component of the window's intersection holding round ``start``'s
    heads, or ``None`` when they are split."""
    heads = trace.snapshot(start).heads()
    inter = intersection_graph(trace, start, stop)
    if len(heads) <= 1:
        return inter.subgraph(heads).copy()
    comp = nx.node_connected_component(inter, next(iter(heads)))
    if not heads <= comp:
        return None
    return inter.subgraph(comp).copy()


def hop_distance(graph: nx.Graph, heads: FrozenSet) -> Optional[int]:
    """Bottleneck edge of an MST over the heads' shortest-path metric."""
    heads = frozenset(heads)
    if len(heads) <= 1:
        return 0
    aux = nx.Graph()
    aux.add_nodes_from(heads)
    for h in heads:
        if h not in graph:
            return None
        for g, d in nx.single_source_shortest_path_length(graph, h).items():
            if g in heads and g != h:
                aux.add_edge(h, g, weight=d)
    if not nx.is_connected(aux):
        return None
    mst = nx.minimum_spanning_tree(aux, weight="weight")
    return max(d for _, _, d in mst.edges(data="weight"))


def realized_hop_bound(trace: GraphTrace, T: int, windows: str = "blocks") -> Optional[int]:
    worst = 0
    for start, stop in windows_of(trace.horizon, T, windows):
        wit = witness(trace, start, stop)
        if wit is None:
            return None
        worst = max(worst, hop_distance(wit, trace.snapshot(start).heads()))
    return worst


def head_connected(trace: GraphTrace, T: int, windows: str = "blocks") -> bool:
    return all(
        witness(trace, start, stop) is not None
        for start, stop in windows_of(trace.horizon, T, windows)
    )


def is_T_L_head_connected(
    trace: GraphTrace, T: int, L: int, windows: str = "blocks"
) -> bool:
    bound = realized_hop_bound(trace, T, windows)
    return bound is not None and bound <= L


def is_hinet(trace: GraphTrace, T: int, L: int, windows: str = "blocks") -> bool:
    return hierarchy_stable(trace, T, windows) and is_T_L_head_connected(
        trace, T, L, windows
    )


def interval_connected(trace: GraphTrace, T: int, windows: str) -> bool:
    """Every window's intersection graph spans and connects all nodes."""
    return all(
        trace.n <= 1 or nx.is_connected(intersection_graph(trace, start, stop))
        for start, stop in windows_of(trace.horizon, T, windows)
    )

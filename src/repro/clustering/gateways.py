"""Gateway selection: wiring cluster heads into a connected backbone.

Given a graph and a cluster assignment, pick the member nodes that will
act as gateways so that heads are connected "directly or by only gateway
nodes" (paper, Definition 6).  We route over a minimum spanning tree of
the head-to-head shortest-path metric: for each MST link, the interior
nodes of one shortest path become gateways.  The resulting hop bound
between MST-adjacent heads is the realized ``L`` of the hierarchy.

Gateways keep their cluster affiliation — the flag changes behaviour (they
broadcast like heads in Algorithms 1 and 2), not membership.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

from ..sim.topology import Snapshot
from .hierarchy import ClusterAssignment

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["select_gateways", "backbone_hop_bound"]


def _graph_of(snapshot: Snapshot) -> nx.Graph:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(snapshot.n))
    g.add_edges_from(snapshot.edges())
    return g


def _head_mst(graph: nx.Graph, heads: FrozenSet[int]) -> Optional[nx.Graph]:
    """MST over heads under the shortest-path metric; None if disconnected."""
    import networkx as nx

    aux = nx.Graph()
    aux.add_nodes_from(heads)
    for h in heads:
        lengths = nx.single_source_shortest_path_length(graph, h)
        for g2, d in lengths.items():
            if g2 in heads and g2 != h:
                aux.add_edge(h, g2, weight=d)
    if len(heads) > 1 and not nx.is_connected(aux):
        return None
    return nx.minimum_spanning_tree(aux, weight="weight")


def select_gateways(
    snapshot: Snapshot, assignment: ClusterAssignment
) -> Tuple[ClusterAssignment, Optional[int]]:
    """Flag gateway nodes connecting the heads; return (assignment, realized L).

    Returns the updated assignment and the maximum hop distance between
    MST-adjacent heads (the empirical ``L``), or ``(assignment, None)`` if
    the heads cannot be connected in this round's graph (a disconnected
    round — Definition 5 fails for it).
    """
    import networkx as nx

    heads = assignment.heads
    if len(heads) <= 1:
        return assignment.with_gateways(frozenset()), 0
    graph = _graph_of(snapshot)
    mst = _head_mst(graph, heads)
    if mst is None:
        return assignment, None
    gateways: set = set()
    realized = 0
    for u, v, d in mst.edges(data="weight"):
        realized = max(realized, int(d))
        path = nx.shortest_path(graph, u, v)
        gateways.update(w for w in path[1:-1] if w not in heads)
    return assignment.with_gateways(frozenset(gateways)), realized


def backbone_hop_bound(snapshot: Snapshot, assignment: ClusterAssignment) -> Optional[int]:
    """The realized ``L`` without modifying the assignment (analysis helper)."""
    heads = assignment.heads
    if len(heads) <= 1:
        return 0
    mst = _head_mst(_graph_of(snapshot), heads)
    if mst is None:
        return None
    return max(int(d) for _, _, d in mst.edges(data="weight"))

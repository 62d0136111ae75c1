"""The Time-Varying Graph (TVG) formalism.

Casteigts et al.'s TVG models a dynamic network as
:math:`G = (V, E, \\Gamma, \\rho, \\zeta)` (paper, Section II): a vertex
set, an edge universe, a lifetime divided into rounds, a *presence*
function :math:`\\rho(e, t) \\in \\{0, 1\\}` saying whether edge ``e`` is
available at round ``t``, and a *latency* function :math:`\\zeta(e, t)`
giving the time to cross it.

This class is the formal façade over a concrete
:class:`~repro.sim.topology.GraphTrace`: it exposes ρ/ζ, the footprint
(union) graph, per-round :mod:`networkx` views, and temporal reachability
(journeys), which underpins the dynamic-diameter computation.  In our
synchronous model latency is uniformly one round (a message sent over a
present edge arrives the same round; crossing towards the next hop takes
the next round), matching the paper's send/receive rounds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from ..sim.topology import GraphTrace

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["TVG"]

Edge = Tuple[int, int]


def _norm(e: Edge) -> Edge:
    u, v = e
    return (u, v) if u <= v else (v, u)


class TVG:
    """Formal TVG view over a finite trace.

    Parameters
    ----------
    trace:
        The underlying per-round snapshots.
    latency:
        Rounds needed to cross a present edge (ζ); the synchronous model
        uses 1 everywhere and the algorithms assume it.
    """

    def __init__(self, trace: GraphTrace, latency: int = 1) -> None:
        if latency < 1:
            raise ValueError(f"latency must be >= 1 round, got {latency}")
        self.trace = trace
        self.latency = latency

    # -- formal components ------------------------------------------------

    @property
    def n(self) -> int:
        """|V|."""
        return self.trace.n

    @property
    def lifetime(self) -> range:
        """Γ as a range of recorded round indices."""
        return range(self.trace.horizon)

    def rho(self, e: Edge, t: int) -> bool:
        """Presence function: is edge ``e`` available in round ``t``?"""
        u, v = _norm(e)
        return v in self.trace.snapshot(t).adj[u]

    def zeta(self, e: Edge, t: int) -> int:
        """Latency function: rounds to cross ``e`` starting at round ``t``."""
        return self.latency

    # -- derived graphs ---------------------------------------------------

    def snapshot_graph(self, t: int) -> nx.Graph:
        """The round-``t`` topology as a :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph()
        snap = self.trace.snapshot(t)
        g.add_nodes_from(range(snap.n))
        g.add_edges_from(snap.edges())
        return g

    def footprint(self) -> nx.Graph:
        """The union graph: edges present in at least one recorded round."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for snap in self.trace:
            g.add_edges_from(snap.edges())
        return g

    def intersection(self, start: int, stop: int) -> nx.Graph:
        """Edges present in *every* round of ``[start, stop)``.

        This is the candidate universe for the stable witness subgraph Υ in
        the T-interval connectivity definitions.
        """
        import networkx as nx

        if stop <= start:
            raise ValueError(f"empty window [{start}, {stop})")
        common: Optional[FrozenSet[Edge]] = None
        for r in range(start, stop):
            edges = self.trace.snapshot(r).edge_set()
            common = edges if common is None else common & edges
            if not common:
                break
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(common or ())
        return g

    # -- temporal reachability ---------------------------------------------

    def earliest_arrivals(self, source: int, start: int = 0,
                          horizon: Optional[int] = None) -> Dict[int, int]:
        """Foremost-journey arrival rounds from ``source``.

        ``result[v]`` is the earliest round index ``t`` such that information
        originating at ``source`` at the *beginning* of round ``start`` can
        be at ``v`` by the *end* of round ``t``, moving one present edge per
        round (flooding speed — the causal-influence relation of the
        dynamic-diameter literature).  ``result[source] = start - 1`` by
        convention (known before any round).  Unreachable nodes are absent.
        """
        if not (0 <= source < self.n):
            raise ValueError(f"source {source} out of range")
        limit = self.trace.horizon if horizon is None else horizon
        reached = {source: start - 1}
        # NB: a round that adds nothing must not end the search — in a
        # dynamic graph an edge appearing later can still extend reach, so
        # we scan every round up to the horizon (or until everyone is in).
        for t in range(start, limit):
            if len(reached) >= self.n:
                break
            snap = self.trace.snapshot(t)
            new = set()
            for u in reached:
                for v in snap.adj[u]:
                    if v not in reached:
                        new.add(v)
            for v in new:
                reached[v] = t
        return reached

    def flood_time(self, source: int, start: int = 0,
                   horizon: Optional[int] = None) -> Optional[int]:
        """Rounds for a single token at ``source`` to flood everywhere.

        Returns the number of rounds elapsed from ``start`` until all nodes
        are reached, or ``None`` if the horizon is hit first.  In a
        1-interval connected network this is at most ``n - 1`` (O'Dell &
        Wattenhofer; paper, Section II).
        """
        arr = self.earliest_arrivals(source, start=start, horizon=horizon)
        if len(arr) < self.n:
            return None
        last = max(arr.values())
        return last - start + 1

"""Dynamic diameter of a trace.

Kuhn & Oshman's *dynamic diameter* (paper, Section II) bounds the time for
every node to be causally influenced by every other node: the smallest
``d`` such that, from any start round, information at any node reaches all
nodes within ``d`` rounds of flooding.  It generalises static diameter —
for a constant trace it coincides with the graph diameter — and upper
bounds 1-token dissemination time.

The computation floods (temporal BFS via :class:`~repro.graphs.tvg.TVG`)
from every source at every requested start round; cost is
O(starts · n · horizon) set operations, fine at the library's scale.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..sim.topology import GraphTrace
from .tvg import TVG

__all__ = ["backbone_dynamic_diameter", "dynamic_diameter", "flood_times"]


def flood_times(
    trace: GraphTrace, start: int = 0, horizon: Optional[int] = None
) -> list:
    """Per-source single-token flood times from round ``start``.

    ``result[v]`` is the number of rounds for a token at ``v`` to reach all
    nodes (``None`` if the horizon cuts the flood short).
    """
    tvg = TVG(trace)
    return [tvg.flood_time(v, start=start, horizon=horizon) for v in range(trace.n)]


def dynamic_diameter(
    trace: GraphTrace,
    starts: Optional[Iterable[int]] = None,
    horizon: Optional[int] = None,
) -> Optional[int]:
    """The dynamic diameter over the given start rounds (default: only round 0).

    Returns ``None`` if any flood fails to cover the network before the
    horizon — the trace then has no finite dynamic diameter within its
    recorded lifetime.

    Notes
    -----
    Checking *every* start round of a long trace is quadratic; benchmarks
    that only need an upper bound typically pass ``starts=range(0, H, T)``
    (phase boundaries).
    """
    if starts is None:
        starts = (0,)
    worst = 0
    for s in starts:
        for t in flood_times(trace, start=s, horizon=horizon):
            if t is None:
                return None
            worst = max(worst, t)
    return worst


def backbone_dynamic_diameter(
    trace: GraphTrace, start: int = 0, horizon: Optional[int] = None
) -> Optional[int]:
    """Dynamic diameter of the *backbone* — heads and gateways only.

    Measures how fast information circulates among the broadcasting
    nodes: the quantity that actually bounds head-to-head progress in the
    hierarchical algorithms (members are leaves fed in one extra hop).
    Per round, only edges with both endpoints in that round's
    head ∪ gateway set are usable.  Requires a clustered trace.

    Returns the worst flood time over backbone sources starting at
    ``start``, or ``None`` if some backbone node can't reach all others
    within the horizon (e.g. the backbone membership churns too fast).
    """
    from ..roles import Role
    from ..sim.topology import Snapshot

    if not trace.clustered:
        raise ValueError("backbone diameter requires a clustered trace")
    limit = trace.horizon if horizon is None else horizon

    def backbone_nodes(snap: Snapshot):
        return {
            v
            for v in range(snap.n)
            if snap.roles[v] in (Role.HEAD, Role.GATEWAY)  # type: ignore[index]
        }

    sources = backbone_nodes(trace.snapshot(start))
    worst = 0
    for src in sources:
        reached = {src}
        done_at = start - 1
        for t in range(start, limit):
            snap = trace.snapshot(t)
            bb = backbone_nodes(snap)
            targets = bb | {src}
            if reached >= targets and t > start:
                break
            new = set()
            for u in reached:
                for v in snap.adj[u]:
                    if v in bb and v not in reached:
                        new.add(v)
            if new:
                reached |= new
                done_at = t
            # completion check against the CURRENT backbone membership
            if bb <= reached:
                break
        final_bb = backbone_nodes(trace.snapshot(min(limit - 1, trace.horizon - 1)))
        if not final_bb <= reached:
            return None
        worst = max(worst, done_at - start + 1)
    return worst

"""Intermittently-connected (DTN-style) dynamics.

Everything in the paper assumes *every round is connected* (1-interval
connectivity is O'Dell & Wattenhofer's proven-minimal requirement for
guaranteed dissemination).  Delay-tolerant networks violate it: the node
set splits into islands that only meet occasionally.  This generator
produces such traces with a *temporal connectivity* guarantee instead —
information can still eventually travel everywhere via island merges —
so the extension benchmarks can measure how each algorithm's delivery
degrades from "every round" to "eventually" connectivity.

Construction: nodes are partitioned into ``islands`` groups, each
internally wired as a random connected graph every round.  Every
``meet_every`` rounds, for ``meet_for`` consecutive rounds, one pair of
islands (rotating round-robin over pairs) is bridged by a random edge.
With the round-robin visiting all pairs, the union over any
``meet_every × C(islands, 2)`` window is connected, which bounds the
flooding time; no single round is connected (for ``islands ≥ 2``) unless
a meeting is in progress and islands == 2.
"""

from __future__ import annotations

from itertools import combinations
from typing import List

from ...sim.rng import SeedLike, make_rng
from ...sim.topology import GraphTrace, csr_rounds
from .static import random_connected_graph

__all__ = ["partitioned_trace"]


def partitioned_trace(
    n: int,
    rounds: int,
    islands: int = 3,
    meet_every: int = 5,
    meet_for: int = 1,
    intra_p: float = 0.3,
    seed: SeedLike = None,
) -> GraphTrace:
    """Generate an intermittently-connected trace (see module docstring).

    Parameters
    ----------
    n, rounds:
        Size and length.
    islands:
        Number of groups (≥ 2 for actual partitioning; 1 degenerates to
        a connected random graph per round).
    meet_every:
        A meeting starts every this-many rounds.
    meet_for:
        Rounds each meeting lasts (a longer rendezvous passes more data).
    intra_p:
        Density of each island's internal G(n_i, p) (made connected).
    """
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    if islands < 1 or islands > n:
        raise ValueError(f"need 1 <= islands <= n, got {islands}")
    if meet_every < 1 or meet_for < 1:
        raise ValueError("meet_every and meet_for must be >= 1")

    rng = make_rng(seed)
    # contiguous island membership keeps the construction transparent
    bounds = [round(i * n / islands) for i in range(islands + 1)]
    groups: List[List[int]] = [
        list(range(bounds[i], bounds[i + 1])) for i in range(islands)
    ]
    if any(not g for g in groups):
        raise ValueError(f"islands={islands} too many for n={n}")
    pairs = list(combinations(range(islands), 2)) or [(0, 0)]

    round_edges: List[List[tuple]] = []
    meeting_idx = -1
    for r in range(rounds):
        edges: List[tuple] = []
        for group in groups:
            g = random_connected_graph(len(group), intra_p, seed=rng)
            edges.extend((group[a], group[b]) for a, b in g.edges())
        phase = r % meet_every
        if phase == 0:
            meeting_idx += 1
        if phase < meet_for and islands > 1:
            i, j = pairs[meeting_idx % len(pairs)]
            u = int(rng.choice(groups[i]))
            v = int(rng.choice(groups[j]))
            edges.append((u, v))
        round_edges.append(edges)
    return GraphTrace(csr_rounds(n, round_edges), extend="hold")

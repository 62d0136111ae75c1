"""Edge-Markovian Dynamic Graphs (EMDG).

Clementi et al.'s stochastic dynamics (paper, Section II): each potential
edge evolves as an independent two-state Markov chain with *birth rate*
``p`` (an absent edge appears next round with probability ``p``) and
*death rate* ``q`` (a present edge disappears with probability ``q``).
The stationary edge density is ``p / (p + q)``.

The paper lists extending (T, L)-HiNet to EMDG as future work; we provide
the generator both as a related-work substrate (flooding over EMDG) and as
the workload for the extension benchmarks that measure how the
hierarchical algorithms degrade when stability is only statistical.

``ensure_connected=True`` overlays a fresh random spanning tree on any
disconnected round, yielding the 1-interval connected variant that
Theorem 2-style correctness arguments require.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ...sim.rng import SeedLike, make_rng
from ...sim.topology import GraphTrace, csr_rounds
from .static import random_spanning_tree

__all__ = ["edge_markovian_trace", "stationary_density"]


def stationary_density(p: float, q: float) -> float:
    """Stationary probability that an edge is present: ``p / (p + q)``."""
    if p < 0 or q < 0 or p + q == 0:
        raise ValueError(f"need non-negative rates with p + q > 0, got p={p}, q={q}")
    return p / (p + q)


def edge_markovian_trace(
    n: int,
    rounds: int,
    p: float,
    q: float,
    seed: SeedLike = None,
    initial_density: Optional[float] = None,
    ensure_connected: bool = False,
) -> GraphTrace:
    """Generate an EMDG trace.

    Parameters
    ----------
    n, rounds:
        Size and length.
    p:
        Birth rate: Pr[absent edge appears next round].
    q:
        Death rate: Pr[present edge disappears next round].
    initial_density:
        Edge probability of the round-0 graph; defaults to the stationary
        density ``p / (p + q)`` so the chain starts in equilibrium.
    ensure_connected:
        Overlay a random spanning tree on every disconnected round (the
        1-interval connected variant).

    Implementation note: edge states are a boolean vector over the
    :math:`\\binom{n}{2}` edge slots, updated with two vectorised Bernoulli
    draws per round — O(n²) memory, linear-time rounds, per the HPC guides'
    vectorise-the-hot-loop advice.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    for name, rate in (("p", p), ("q", q)):
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"{name} must be a probability, got {rate}")
    rng = make_rng(seed)
    density = stationary_density(p, q) if initial_density is None else initial_density
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"initial_density must be a probability, got {density}")

    iu, ju = np.triu_indices(n, k=1)
    m = len(iu)
    state = rng.random(m) < density

    round_edges: List[np.ndarray] = []
    for r in range(rounds):
        if r > 0:
            births = rng.random(m) < p
            deaths = rng.random(m) < q
            state = np.where(state, ~deaths, births)
        edges = np.column_stack((iu[state], ju[state]))
        if ensure_connected and n > 1:
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(edges.tolist())
            if not nx.is_connected(g):
                tree = list(random_spanning_tree(n, seed=rng).edges())
                edges = np.concatenate([edges, tree])
        round_edges.append(edges)
    return GraphTrace(csr_rounds(n, round_edges), extend="hold")

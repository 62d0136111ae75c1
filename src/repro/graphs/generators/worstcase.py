"""Worst-case 1-interval connected adversaries.

These implement the adversarial dynamics used in the dynamic-network lower
bound literature: each round the graph is connected (so Theorem 2-style
correctness holds), but the adversary rewires it completely to slow
dissemination as much as a structure-oblivious adversary can.

* :func:`shuffled_path_trace` — each round is a fresh uniformly random
  Hamiltonian path.  A path is the connected graph with the fewest edges
  and largest diameter, so token progress is minimal per round; this is the
  classic hard instance for flooding-style algorithms.
* :func:`rotating_star_trace` — each round is a star whose centre rotates
  deterministically.  Every node is within 2 hops, yet the churn forces
  re-uploads in clustered algorithms; useful as a high-re-affiliation
  stress case.
* :func:`bottleneck_trace` — two cliques joined by a single bridge whose
  endpoint rotates; dissemination must squeeze through one edge per round.
"""

from __future__ import annotations

import numpy as np

from ...sim.rng import SeedLike, make_rng
from ...sim.topology import csr_rounds
from ..trace import GraphTrace

__all__ = ["bottleneck_trace", "rotating_star_trace", "shuffled_path_trace"]


def shuffled_path_trace(n: int, rounds: int, seed: SeedLike = None) -> GraphTrace:
    """Every round an independent uniformly random path over all ``n`` nodes."""
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    rng = make_rng(seed)
    orders = [rng.permutation(n) for _ in range(rounds)]
    return GraphTrace(
        csr_rounds(n, [np.column_stack((o[:-1], o[1:])) for o in orders]),
        extend="hold",
    )


def rotating_star_trace(n: int, rounds: int, stride: int = 1) -> GraphTrace:
    """Every round a star centred on node ``(r * stride) mod n``."""
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    if stride < 0:
        raise ValueError(f"stride must be non-negative, got {stride}")
    nodes = np.arange(n)
    stars = []
    for r in range(rounds):
        centre = (r * stride) % n
        stars.append(np.column_stack((np.full(n - 1, centre), nodes[nodes != centre])))
    return GraphTrace(csr_rounds(n, stars), extend="hold")


def bottleneck_trace(n: int, rounds: int, seed: SeedLike = None) -> GraphTrace:
    """Two cliques of ⌈n/2⌉ and ⌊n/2⌋ nodes joined by one random bridge per round.

    All information flowing between the halves must cross the single bridge
    edge, whose endpoints are re-chosen uniformly each round — a moving
    cut of capacity one.
    """
    if n < 4:
        raise ValueError(f"need at least four nodes for two cliques, got {n}")
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    rng = make_rng(seed)
    half = n // 2
    left, right = np.arange(half), np.arange(half, n)
    cliques = np.concatenate([
        np.column_stack(np.triu_indices(half, k=1)),
        half + np.column_stack(np.triu_indices(n - half, k=1)),
    ])
    bridges = [(int(rng.choice(left)), int(rng.choice(right))) for _ in range(rounds)]
    return GraphTrace(
        csr_rounds(n, [np.vstack([cliques, [bridge]]) for bridge in bridges]),
        extend="hold",
    )

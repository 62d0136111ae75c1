"""Generators of T-interval connected (flat) dynamic graphs.

Kuhn–Lynch–Oshman's model: for every ``T`` consecutive rounds there exists
a stable connected spanning subgraph.  The generator realises it
constructively — per aligned block of ``T`` rounds it commits to a random
spanning tree (the stable witness) and then lets everything else churn
round-by-round: random extra edges appear and disappear freely.  The output
is therefore T-interval connected by construction *for aligned blocks*;
with ``overlap_guard=True`` consecutive blocks share their witness for the
straddling windows, making the trace T-interval connected in the strict
sliding sense as well (each sliding window then contains a full stable
tree).

Every trace produced here is validated in the tests against
:func:`repro.graphs.properties.is_T_interval_connected`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...sim.rng import SeedLike, make_rng
from ...sim.topology import csr_rounds
from ..trace import GraphTrace
from .static import random_spanning_tree

__all__ = ["t_interval_trace"]


def _random_path(n: int, rng) -> np.ndarray:
    """Edges of a random Hamiltonian path, as an ``(n - 1, 2)`` array."""
    order = rng.permutation(n).astype(np.int64)
    return np.column_stack((order[:-1], order[1:]))


def _random_tree(n: int, rng) -> np.ndarray:
    """Edges of :func:`random_spanning_tree`, as an ``(n - 1, 2)`` array."""
    tree = random_spanning_tree(n, seed=rng)
    return np.array(list(tree.edges()), dtype=np.int64).reshape(-1, 2)


def t_interval_trace(
    n: int,
    T: int,
    rounds: int,
    churn_p: float = 0.05,
    seed: SeedLike = None,
    sliding: bool = True,
    spine: str = "tree",
) -> GraphTrace:
    """Generate a T-interval connected flat trace.

    Parameters
    ----------
    n:
        Node count.
    T:
        Stability interval: each aligned block of ``T`` rounds keeps a fixed
        random stable spine; the spine is redrawn at block boundaries.
    rounds:
        Trace length.
    churn_p:
        Density of per-round noise edges (independent G(n, churn_p) overlay
        each round) — the "dynamic" part of the dynamic network.
    sliding:
        If true (default), each block's spine is kept alive through the first
        ``T - 1`` rounds of the *next* block so that every sliding window of
        ``T`` rounds contains one full stable spine, matching KLO's original
        definition.  If false, only aligned blocks are guaranteed.
    spine:
        Shape of the per-block stable subgraph: ``"tree"`` (random spanning
        tree, the benign default) or ``"path"`` — a random Hamiltonian
        path, the *worst-case* stable witness (diameter n−1), pushing
        measured dissemination times toward the analytic bounds.  With
        ``spine="path"`` set ``churn_p=0`` for the genuinely adversarial
        instance; noise edges otherwise shortcut the path.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    if not (0.0 <= churn_p <= 1.0):
        raise ValueError(f"churn_p must be a probability, got {churn_p}")
    if spine not in ("tree", "path"):
        raise ValueError(f"spine must be 'tree' or 'path', got {spine!r}")

    rng = make_rng(seed)
    num_blocks = (rounds + T - 1) // T
    make_spine = _random_tree if spine == "tree" else _random_path
    spines = [make_spine(n, rng) for _ in range(num_blocks)]

    # vertex pairs u < v of the per-round G(n, churn_p) churn
    churn = churn_p > 0 and n >= 2
    pairs = np.column_stack(np.triu_indices(n, k=1))
    round_edges: List[np.ndarray] = []
    for r in range(rounds):
        block = r // T
        offset = r % T
        parts = [spines[block]]
        if sliding and block > 0 and offset < T - 1:
            # keep the previous block's spine alive so windows straddling
            # the boundary still contain a full stable connected subgraph
            parts.append(spines[block - 1])
        if churn:
            parts.append(pairs[np.flatnonzero(rng.random(len(pairs)) < churn_p)])
        round_edges.append(np.concatenate(parts))
    return GraphTrace(csr_rounds(n, round_edges), extend="hold")

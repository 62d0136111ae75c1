"""Stability-aware head election (MOBIC-style).

Lowest-ID and highest-degree pick heads by static attributes; mobility-
aware schemes (Basu et al.'s MOBIC and the weight-based family it
belongs to) prefer nodes whose *neighbourhood has been stable*, because
a head that keeps its members in range causes fewer re-affiliations —
exactly the :math:`n_r` term the paper's cost model charges for.

Radio-level relative-mobility metrics aren't observable in a graph
model, so the stability weight here is the topological analogue: each
node's recent **neighbour churn** — the size of the symmetric difference
of its neighbour sets between consecutive rounds, summed over a sliding
window.  Election sweeps in ascending (churn, id) order, so calm nodes
become heads.

Because the weight needs history, the election function takes
``(snapshot, round, trace)``; :func:`repro.clustering.maintenance.
maintain_clustering` detects the 3-argument signature and supplies them.
"""

from __future__ import annotations

from typing import List

from ..sim.topology import GraphTrace, Snapshot
from .hierarchy import ClusterAssignment
from .lowest_id import sweep_clustering

__all__ = ["neighbor_churn", "stability_clustering"]


def neighbor_churn(trace: GraphTrace, r: int, window: int = 5) -> List[int]:
    """Per-node neighbour churn over the last ``window`` rounds before ``r``.

    ``churn[v] = Σ_{t in (r-window, r]} |N_t(v) Δ N_{t-1}(v)|`` — zero for
    a node whose neighbourhood never changed in the window (and for
    everything at round 0, where there is no history).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = trace.n
    churn = [0] * n
    start = max(r - window + 1, 1)
    for t in range(start, r + 1):
        prev = trace.snapshot(t - 1)
        cur = trace.snapshot(t)
        for v in range(n):
            churn[v] += len(prev.adj[v] ^ cur.adj[v])
    return churn


def stability_clustering(
    snapshot: Snapshot, r: int, trace: GraphTrace, window: int = 5
) -> ClusterAssignment:
    """Cluster with the calmest nodes as heads (ties by ascending id)."""
    churn = neighbor_churn(trace, r, window=window)
    order = sorted(range(snapshot.n), key=lambda v: (churn[v], v))
    return sweep_clustering(snapshot, order)

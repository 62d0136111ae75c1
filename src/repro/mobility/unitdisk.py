"""Unit-disk connectivity: positions → per-round communication graphs.

Two nodes are neighbours iff their Euclidean distance is at most the radio
``radius`` — the standard wireless connectivity abstraction the paper's
system model assumes ("neighborhood … is determined by the communication
range of the wireless transmission").

Neighbour finding uses :class:`scipy.spatial.cKDTree` when scipy is
installed (``O(n log n)``-ish per round, and no quadratic intermediate at
all) and otherwise falls back to a vectorised upper-triangle distance
computation — ``n(n−1)/2`` squared distances without ever materialising
the full ``n × n`` matrix.  :func:`unit_disk_trace` optionally patches
disconnected rounds so that the 1-interval connectivity precondition of
Theorem 2 holds.
"""

from __future__ import annotations

from typing import List

import networkx as nx
import numpy as np

from ..sim.topology import Snapshot, csr_rounds
from ..graphs.trace import GraphTrace

try:  # scipy is an optional dependency throughout the library
    from scipy.spatial import cKDTree as _KDTree
except ImportError:  # pragma: no cover - exercised only without scipy
    _KDTree = None

__all__ = ["unit_disk_edges", "unit_disk_snapshot", "unit_disk_trace"]


def _pairs_triangle(pts: np.ndarray, radius: float) -> List[tuple]:
    """Upper-triangle pair scan: ``n(n−1)/2`` squared distances, no (n, n)
    matrix.  Row ``u`` is compared against ``pts[u+1:]`` in one shot."""
    r2 = radius * radius
    out: List[tuple] = []
    n = len(pts)
    for u in range(n - 1):
        d = pts[u + 1:] - pts[u]
        close = np.nonzero(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= r2)[0]
        out.extend((u, int(v)) for v in (close + u + 1))
    return out


def unit_disk_edges(positions: np.ndarray, radius: float) -> List[tuple]:
    """Edge list (``u < v``, sorted) of the unit-disk graph over ``(n, 2)``
    positions."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {pts.shape}")
    if _KDTree is not None and len(pts) >= 2:
        pairs = _KDTree(pts).query_pairs(r=radius, output_type="ndarray")
        pairs.sort(axis=1)  # guarantee u < v
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return [(int(u), int(v)) for u, v in pairs[order]]
    return _pairs_triangle(pts, radius)


def unit_disk_snapshot(positions: np.ndarray, radius: float) -> Snapshot:
    """One round's unit-disk topology as a :class:`Snapshot`."""
    return Snapshot.from_edges(len(positions), unit_disk_edges(positions, radius))


def _connect(n: int, edges: List[tuple]) -> List[tuple]:
    """Add minimal bridge edges joining connected components.

    Deterministic: components are joined through their lowest-id nodes, so
    the patch does not consume randomness and traces stay reproducible.
    """
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    comps = [min(c) for c in nx.connected_components(g)]
    if len(comps) <= 1:
        return edges
    comps.sort()
    bridges = [(comps[i], comps[i + 1]) for i in range(len(comps) - 1)]
    return edges + bridges


def unit_disk_trace(
    positions: np.ndarray,
    radius: float,
    ensure_connected: bool = False,
) -> GraphTrace:
    """Per-round unit-disk graphs for a ``(rounds, n, 2)`` trajectory array.

    Parameters
    ----------
    positions:
        Output of e.g. :meth:`repro.mobility.waypoint.RandomWaypoint.run`.
    radius:
        Radio range.
    ensure_connected:
        Patch each disconnected round with deterministic bridge edges (a
        long-range link between component representatives) so the trace is
        1-interval connected.  Real deployments achieve this with higher
        density; the patch keeps sparse test scenarios usable.
    """
    traj = np.asarray(positions, dtype=float)
    if traj.ndim != 3 or traj.shape[2] != 2:
        raise ValueError(
            f"positions must have shape (rounds, n, 2), got {traj.shape}"
        )
    rounds, n = traj.shape[0], traj.shape[1]
    round_edges = []
    for r in range(rounds):
        edges = unit_disk_edges(traj[r], radius)
        if ensure_connected and n > 1:
            edges = _connect(n, edges)
        round_edges.append(edges)
    return GraphTrace(csr_rounds(n, round_edges), extend="hold")

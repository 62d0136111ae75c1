"""Static topology builders.

These return :class:`networkx.Graph` objects on nodes ``0 .. n-1`` and are
used three ways: as building blocks for dynamic generators, as degenerate
"T = ∞" scenarios, and as the geometry under the clustering algorithms'
unit tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...sim.rng import SeedLike, make_rng
from ...sim.topology import GraphTrace, Snapshot, SnapshotArrays

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "clustered_star_arrays",
    "complete_graph",
    "erdos_renyi",
    "grid_graph",
    "path_graph",
    "random_connected_graph",
    "random_spanning_tree",
    "ring_graph",
    "ring_lattice_arrays",
    "static_trace",
]


def path_graph(n: int) -> nx.Graph:
    """A path 0–1–…–(n-1): diameter n-1, the slowest connected topology."""
    import networkx as nx

    return nx.path_graph(n)


def ring_graph(n: int) -> nx.Graph:
    """A cycle on ``n`` nodes (n >= 3)."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {n}")
    import networkx as nx

    return nx.cycle_graph(n)


def complete_graph(n: int) -> nx.Graph:
    """The complete graph — one-round dissemination for any algorithm."""
    import networkx as nx

    return nx.complete_graph(n)


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """A rows × cols grid relabelled onto ``0 .. rows*cols - 1`` (row-major)."""
    import networkx as nx

    g = nx.grid_2d_graph(rows, cols)
    mapping = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
    return nx.relabel_nodes(g, mapping)


def erdos_renyi(n: int, p: float, seed: SeedLike = None) -> nx.Graph:
    """G(n, p) with an explicit seed (may be disconnected)."""
    import networkx as nx

    rng = make_rng(seed)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    if n < 2 or p <= 0:
        return g
    upper = np.triu_indices(n, k=1)
    mask = rng.random(len(upper[0])) < p
    g.add_edges_from(zip(upper[0][mask].tolist(), upper[1][mask].tolist()))
    return g


def random_spanning_tree(n: int, seed: SeedLike = None) -> nx.Graph:
    """A uniform-ish random labelled tree on ``n`` nodes (random Prüfer sequence)."""
    import networkx as nx

    rng = make_rng(seed)
    if n <= 0:
        raise ValueError(f"need at least one node, got {n}")
    if n == 1:
        g = nx.Graph()
        g.add_node(0)
        return g
    if n == 2:
        g = nx.Graph()
        g.add_edge(0, 1)
        return g
    prufer = rng.integers(0, n, size=n - 2).tolist()
    return nx.from_prufer_sequence(prufer)


def random_connected_graph(n: int, p: float, seed: SeedLike = None) -> nx.Graph:
    """G(n, p) forced connected by overlaying a random spanning tree.

    Used where a generator must guarantee 1-interval connectivity but still
    wants G(n, p)-like density.
    """
    rng = make_rng(seed)
    g = erdos_renyi(n, p, seed=rng)
    g.add_edges_from(random_spanning_tree(n, seed=rng).edges())
    return g


def static_trace(graph: nx.Graph, rounds: int = 1, extend: str = "hold") -> GraphTrace:
    """Wrap a static graph as a (trivially ∞-interval-connected) trace."""
    return GraphTrace.constant(Snapshot.from_networkx(graph), rounds=rounds, extend=extend)


# ---------------------------------------------------------------------------
# array-native builders (million-node scale)
# ---------------------------------------------------------------------------
#
# These construct SnapshotArrays directly with vectorised numpy — no
# networkx Graph, no per-node frozensets — so million-node topologies for
# the vectorised engine build in milliseconds.  Wrap one in a one-round
# GraphTrace (a static network under "hold") or pass a per-round list.

def ring_lattice_arrays(n: int, degree: int) -> SnapshotArrays:
    """A flat ring lattice as CSR arrays: each node links to the ``degree/2``
    nearest neighbours on each side (a circulant graph — the standard
    bounded-degree benchmark topology for flooding at scale)."""
    if degree < 2 or degree % 2:
        raise ValueError(f"degree must be a positive even number, got {degree}")
    if n <= degree:
        raise ValueError(f"need n > degree, got n={n}, degree={degree}")
    half = degree // 2
    offsets = np.concatenate((np.arange(-half, 0), np.arange(1, half + 1)))
    neigh = (np.arange(n, dtype=np.int64)[:, None] + offsets[None, :]) % n
    neigh.sort(axis=1)
    degrees = np.full(n, degree, dtype=np.int64)
    indptr = np.arange(0, (n + 1) * degree, degree, dtype=np.int64)
    return SnapshotArrays(
        indptr=indptr,
        indices=neigh.reshape(-1),
        degrees=degrees,
        roles=None,
        head_of=None,
        head_adjacent=None,
    )


def clustered_star_arrays(n: int, theta: int) -> SnapshotArrays:
    """A clustered topology as CSR arrays: ``theta`` heads in a ring, every
    other node a member of head ``v % theta`` adjacent only to its head.

    The array-native counterpart of the HiNet generators for large
    Algorithm-1/2 sweeps: a valid static (∞, L)-hierarchy (heads adjacent
    head-to-head, members star-attached) with every member's upload
    deliverable (``head_adjacent`` all true).
    """
    if theta < 3:
        raise ValueError(f"need at least 3 heads for the head ring, got {theta}")
    if n <= theta:
        raise ValueError(f"need n > theta, got n={n}, theta={theta}")
    members = np.arange(theta, n, dtype=np.int64)
    member_head = members % theta
    # per-head member lists, grouped by head id (stable keeps them sorted)
    order = np.argsort(member_head, kind="stable")
    grouped_members = members[order]
    members_per_head = np.bincount(member_head, minlength=theta)
    degrees = np.empty(n, dtype=np.int64)
    degrees[:theta] = 2 + members_per_head  # ring neighbours + own members
    degrees[theta:] = 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    member_start = 0
    for h in range(theta):
        start = int(indptr[h])
        count = int(members_per_head[h])
        ring = sorted(((h - 1) % theta, (h + 1) % theta))
        own = grouped_members[member_start:member_start + count]
        row = np.concatenate((np.asarray(ring, dtype=np.int64), own))
        row.sort()
        indices[start:start + 2 + count] = row
        member_start += count
    indices[indptr[theta]:] = member_head  # each member: just its head
    roles = np.full(n, 2, dtype=np.int8)  # MEMBER
    roles[:theta] = 0  # HEAD
    head_of = np.empty(n, dtype=np.int64)
    head_of[:theta] = np.arange(theta)
    head_of[theta:] = member_head
    return SnapshotArrays(
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        roles=roles,
        head_of=head_of,
        head_adjacent=np.ones(n, dtype=bool),
    )

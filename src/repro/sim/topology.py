"""Per-round topology snapshots consumed by the synchronous engine.

A :class:`Snapshot` is the engine's view of one round: who is adjacent to
whom, and — for clustered (CTVG) scenarios — each node's role and cluster
head.  Dynamic-network objects in :mod:`repro.graphs` produce one snapshot
per round; the engine never sees anything else, so any topology source
(precomputed trace, adversary, mobility model, clustering pipeline) plugs
in uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..roles import Role

__all__ = [
    "CSRNetwork",
    "ROLE_CODES",
    "Snapshot",
    "SnapshotArrays",
    "adjacency_from_edges",
]

#: Stable integer codes for roles in :class:`SnapshotArrays` (``-1`` = flat).
ROLE_CODES: Dict[Role, int] = {Role.HEAD: 0, Role.GATEWAY: 1, Role.MEMBER: 2}

#: Inverse of :data:`ROLE_CODES`, for materialising snapshots from arrays.
_ROLE_BY_CODE: Dict[int, Role] = {code: role for role, code in ROLE_CODES.items()}


@dataclass(frozen=True)
class SnapshotArrays:
    """A snapshot's topology re-encoded as flat numpy arrays.

    The vectorised fast path (:mod:`repro.sim.fastpath`) consumes these
    instead of per-node frozensets.  Built once per snapshot and memoized
    (see :meth:`Snapshot.arrays`), so traces that repeat a snapshot — or
    algorithms that run many rounds on the same topology — pay the
    conversion cost a single time.

    Attributes
    ----------
    indptr, indices:
        CSR adjacency: node ``v``'s neighbours (sorted ascending) are
        ``indices[indptr[v]:indptr[v+1]]``.
    degrees:
        ``indptr`` differences, i.e. per-node degree.
    roles:
        Per-node :data:`ROLE_CODES` values, or ``None`` for flat snapshots.
    head_of:
        Per-node cluster head id with ``-1`` for "unaffiliated", or
        ``None`` for flat snapshots.
    head_adjacent:
        ``head_adjacent[v]`` is ``True`` iff ``v`` has a head and that head
        is a neighbour this round (whether a member's unicast upload would
        be delivered); ``None`` for flat snapshots.
    """

    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    roles: Optional[np.ndarray]
    head_of: Optional[np.ndarray]
    head_adjacent: Optional[np.ndarray]


def adjacency_from_edges(
    n: int, edges: Iterable[Tuple[int, int]]
) -> Tuple[FrozenSet[int], ...]:
    """Build an adjacency tuple (index = node id) from an undirected edge list.

    Self-loops are rejected; duplicate edges are harmless.  Node ids must
    lie in ``0 .. n-1``.
    """
    neigh: List[set] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        neigh[u].add(v)
        neigh[v].add(u)
    return tuple(frozenset(s) for s in neigh)


class CSRNetwork:
    """An array-native dynamic network: CSR topology, no frozensets.

    The vectorised round loop (:mod:`repro.sim.columnar`) asks networks for
    ``snapshot_arrays(r)`` and consumes :class:`SnapshotArrays` directly —
    at n = 10⁶, materialising ``n`` adjacency frozensets per round would
    dwarf the simulation itself.  This wrapper turns one
    :class:`SnapshotArrays` (a static topology, repeated every round) or a
    per-round sequence of them into such a network.

    Adjacency must be symmetric (the engines model undirected radio
    links) with each node's neighbour segment sorted ascending — the same
    invariants :meth:`Snapshot.arrays` produces.

    :meth:`snapshot` lazily materialises a full :class:`Snapshot`
    (memoized per distinct arrays object), so the reference engine (and
    runtime monitors) still run on the same network — the small-n
    equivalence bridge the vectorised tests drive.
    """

    def __init__(self, arrays) -> None:
        if isinstance(arrays, SnapshotArrays):
            per_round: Tuple[SnapshotArrays, ...] = (arrays,)
        else:
            per_round = tuple(arrays)
        if not per_round:
            raise ValueError("CSRNetwork needs at least one SnapshotArrays")
        n = per_round[0].degrees.shape[0]
        for arrs in per_round:
            if arrs.indptr.shape[0] != n + 1 or arrs.degrees.shape[0] != n:
                raise ValueError(
                    "every round of a CSRNetwork must cover the same node set"
                )
        self._per_round = per_round
        self._n = n
        self._snap_memo: Dict[int, Tuple[SnapshotArrays, "Snapshot"]] = {}

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def horizon(self) -> Optional[int]:
        """Rounds of explicit topology, or ``None`` for a static network."""
        return None if len(self._per_round) == 1 else len(self._per_round)

    def snapshot_arrays(self, r: int) -> SnapshotArrays:
        """Round ``r``'s topology as arrays (static networks repeat)."""
        if len(self._per_round) == 1:
            return self._per_round[0]
        if not 0 <= r < len(self._per_round):
            raise ValueError(
                f"round {r} outside this network's 0..{len(self._per_round) - 1}"
            )
        return self._per_round[r]

    def snapshot(self, r: int) -> "Snapshot":
        """Round ``r`` as a materialised :class:`Snapshot` (memoized)."""
        arrs = self.snapshot_arrays(r)
        hit = self._snap_memo.get(id(arrs))
        if hit is not None and hit[0] is arrs:
            return hit[1]
        indptr = arrs.indptr
        adj = tuple(
            frozenset(arrs.indices[indptr[v]:indptr[v + 1]].tolist())
            for v in range(self._n)
        )
        roles = None
        if arrs.roles is not None:
            roles = tuple(_ROLE_BY_CODE[c] for c in arrs.roles.tolist())
        head_of = None
        if arrs.head_of is not None:
            head_of = tuple(
                None if h < 0 else h for h in arrs.head_of.tolist()
            )
        snap = Snapshot(adj=adj, roles=roles, head_of=head_of)
        self._snap_memo[id(arrs)] = (arrs, snap)
        return snap


@dataclass(frozen=True)
class Snapshot:
    """Topology (and optionally hierarchy) of one round.

    Attributes
    ----------
    adj:
        ``adj[v]`` is the frozen set of ``v``'s neighbours this round.
    roles:
        Optional per-node :class:`~repro.roles.Role`; ``None`` for flat
        (un-clustered) scenarios.
    head_of:
        Optional per-node cluster head id (= cluster id, since the paper
        uses the head's node id as the cluster id).  A head maps to itself.
        Gateways are members of some cluster too, so they also carry a head
        id.  ``None`` entries mean "currently unaffiliated".
    """

    adj: Tuple[FrozenSet[int], ...]
    roles: Optional[Tuple[Role, ...]] = None
    head_of: Optional[Tuple[Optional[int], ...]] = None

    # -- memoization -----------------------------------------------------
    #
    # Snapshots are immutable, yet algorithms and checkers re-ask the same
    # derived questions (heads, edge set, clusters) every round.  Results
    # are cached in a plain dict attached lazily via object.__setattr__
    # (allowed on frozen dataclasses); the cache is not a dataclass field,
    # so equality and hashing are unaffected.

    def _memo(self) -> dict:
        cache = self.__dict__.get("_memo_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_memo_cache", cache)
        return cache

    # -- construction ----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]],
        roles: Optional[Sequence[Role]] = None,
        head_of: Optional[Sequence[Optional[int]]] = None,
    ) -> "Snapshot":
        """Build a snapshot from an edge list plus optional hierarchy maps."""
        return cls(
            adj=adjacency_from_edges(n, edges),
            roles=tuple(roles) if roles is not None else None,
            head_of=tuple(head_of) if head_of is not None else None,
        )

    @classmethod
    def from_networkx(cls, graph, roles=None, head_of=None) -> "Snapshot":
        """Build a snapshot from a :class:`networkx.Graph` on nodes 0..n-1."""
        n = graph.number_of_nodes()
        return cls.from_edges(n, graph.edges(), roles=roles, head_of=head_of)

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.adj)

    def neighbors(self, v: int) -> FrozenSet[int]:
        """Neighbours of ``v`` this round."""
        return self.adj[v]

    def degree(self, v: int) -> int:
        """Degree of ``v`` this round."""
        return len(self.adj[v])

    def edges(self) -> List[Tuple[int, int]]:
        """Undirected edge list with ``u < v`` (a fresh list per call)."""
        cache = self._memo()
        cached = cache.get("edges")
        if cached is None:
            cached = tuple(
                (u, v) for u in range(self.n) for v in self.adj[u] if u < v
            )
            cache["edges"] = cached
        return list(cached)

    def edge_set(self) -> FrozenSet[Tuple[int, int]]:
        """Frozen set of normalised (u < v) edges — handy for trace diffing."""
        cache = self._memo()
        cached = cache.get("edge_set")
        if cached is None:
            cached = frozenset(self.edges())
            cache["edge_set"] = cached
        return cached

    def role(self, v: int) -> Optional[Role]:
        """Role of ``v`` this round, or ``None`` in a flat scenario."""
        return self.roles[v] if self.roles is not None else None

    def head(self, v: int) -> Optional[int]:
        """Cluster head of ``v`` this round (itself if ``v`` is a head)."""
        return self.head_of[v] if self.head_of is not None else None

    @property
    def clustered(self) -> bool:
        """Whether this snapshot carries hierarchy information."""
        return self.roles is not None and self.head_of is not None

    # -- hierarchy queries -------------------------------------------------

    def heads(self) -> FrozenSet[int]:
        """The cluster-head set :math:`V_h` of this round."""
        self._require_clustered()
        cache = self._memo()
        cached = cache.get("heads")
        if cached is None:
            cached = frozenset(
                v for v in range(self.n) if self.roles[v] is Role.HEAD
            )
            cache["heads"] = cached
        return cached

    def cluster_members(self, head: int) -> FrozenSet[int]:
        """The member set :math:`M_k` of the cluster headed by ``head``.

        Includes the head itself and any gateways affiliated to it, i.e.
        everyone whose ``I(v)`` equals ``head``.
        """
        self._require_clustered()
        return self.clusters().get(head, frozenset())

    def head_members(self, head: int) -> FrozenSet[int]:
        """Alias of :meth:`cluster_members` (the paper's :math:`M_k`)."""
        return self.cluster_members(head)

    def clusters(self) -> Dict[int, FrozenSet[int]]:
        """All clusters as ``{head id: member set}`` (members include head)."""
        self._require_clustered()
        cache = self._memo()
        cached = cache.get("clusters")
        if cached is None:
            out: Dict[int, set] = {}
            for v in range(self.n):
                h = self.head_of[v]
                if h is not None:
                    out.setdefault(h, set()).add(v)
            cached = {h: frozenset(s) for h, s in out.items()}
            cache["clusters"] = cached
        return dict(cached)

    # -- numpy views -------------------------------------------------------

    def arrays(self) -> SnapshotArrays:
        """This snapshot as flat numpy arrays (memoized; see
        :class:`SnapshotArrays`)."""
        cache = self._memo()
        cached = cache.get("arrays")
        if cached is None:
            n = self.n
            degrees = np.fromiter(
                (len(s) for s in self.adj), dtype=np.int64, count=n
            )
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            indices = np.fromiter(
                (u for s in self.adj for u in sorted(s)),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            roles = head_of = head_adjacent = None
            if self.roles is not None:
                roles = np.fromiter(
                    (ROLE_CODES[r] for r in self.roles), dtype=np.int8, count=n
                )
            if self.head_of is not None:
                head_of = np.fromiter(
                    (-1 if h is None else h for h in self.head_of),
                    dtype=np.int64,
                    count=n,
                )
                head_adjacent = np.fromiter(
                    (
                        h is not None and h in self.adj[v]
                        for v, h in enumerate(self.head_of)
                    ),
                    dtype=bool,
                    count=n,
                )
            cached = SnapshotArrays(
                indptr=indptr,
                indices=indices,
                degrees=degrees,
                roles=roles,
                head_of=head_of,
                head_adjacent=head_adjacent,
            )
            cache["arrays"] = cached
        return cached

    # -- validation --------------------------------------------------------

    def validate_hierarchy(self) -> None:
        """Check the CTVG structural invariants; raise ``ValueError`` on breach.

        Enforced (paper, Section III-A):

        * a head's cluster id is its own id;
        * every affiliated non-head's head is an actual head **and** a direct
          neighbour ("the members of a cluster are neighbors of the cluster
          head");
        * gateways are affiliated like any ordinary node.
        """
        self._require_clustered()
        head_set = self.heads()
        for v in range(self.n):
            role, h = self.roles[v], self.head_of[v]
            if role is Role.HEAD:
                if h != v:
                    raise ValueError(f"head {v} has cluster id {h}, expected itself")
            elif h is not None:
                if h not in head_set:
                    raise ValueError(f"node {v} affiliated to non-head {h}")
                if h not in self.adj[v]:
                    raise ValueError(
                        f"node {v} affiliated to head {h} but they are not adjacent"
                    )

    def _require_clustered(self) -> None:
        if not self.clustered:
            raise ValueError("snapshot carries no hierarchy information")

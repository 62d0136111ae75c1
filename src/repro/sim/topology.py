"""Per-round topology snapshots and the traces that sequence them.

A :class:`Snapshot` is the engine's view of one round: who is adjacent to
whom, and — for clustered (CTVG) scenarios — each node's role and cluster
head.  A :class:`GraphTrace` is a dynamic network: the per-round sequence
of snapshots (the paper's CTVG, Definition 1) plus a policy for rounds
past its horizon.  Engines only ask a network for ``.n`` and
``.snapshot(r)`` (and ``.snapshot_arrays(r)`` where present), so any
topology source (precomputed trace, adversary, mobility model, clustering
pipeline) plugs in uniformly.

The representation is :class:`SnapshotArrays`: sorted CSR adjacency plus
role and head arrays.  A trace stores one per round; generators, the
vectorised engine tiers, the property certifiers and the result-cache key
all read them directly.  A :class:`Snapshot` is a view of one round's
arrays, and its per-node ``adj`` frozensets (and ``roles``/``head_of``
tuples) materialise lazily on first access — by the reference engine and
by code that asks set questions of one node.  :func:`csr_rounds` builds
the CSR of many rounds in one pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import FrozenInstanceError, dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..roles import Role

__all__ = [
    "GraphTrace",
    "ROLE_CODES",
    "Snapshot",
    "SnapshotArrays",
    "csr_rounds",
    "head_adjacency",
]

#: Stable integer codes for roles in :class:`SnapshotArrays` (``-1`` = flat).
ROLE_CODES: Dict[Role, int] = {Role.HEAD: 0, Role.GATEWAY: 1, Role.MEMBER: 2}

#: Inverse of :data:`ROLE_CODES`, for materialising snapshots from arrays.
_ROLE_BY_CODE: Dict[int, Role] = {code: role for role, code in ROLE_CODES.items()}

_HEAD = ROLE_CODES[Role.HEAD]


@dataclass(frozen=True)
class SnapshotArrays:
    """A snapshot's topology as flat numpy arrays — its primary form.

    The vectorised tier (:mod:`repro.sim.fastpath`), the property
    certifiers and the result cache consume these instead of per-node
    frozensets.  Array-first generators build them directly (see
    :func:`csr_rounds`); a snapshot built from frozenset adjacency
    converts at construction.  Snapshots of one hierarchy phase may
    share their ``roles``/``head_of``/``head_adjacent`` arrays; treat
    every array as read-only.

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


def _edge_array(edges) -> np.ndarray:
    """``edges`` (pairs, or an ``(m, 2)`` array) as an ``(m, 2)`` int64 array."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _check_edges(n: int, edges: np.ndarray) -> None:
    """Reject self-loops and node ids outside ``0 .. n-1``, naming the
    first offending edge."""
    u, v = edges[:, 0], edges[:, 1]
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        i = int(np.argmax(bad))
        a, b = int(u[i]), int(v[i])
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        raise ValueError(f"edge ({a}, {b}) out of range for n={n}")


def csr_rounds(n: int, rounds: Sequence[np.ndarray]) -> List[SnapshotArrays]:
    """Flat :class:`SnapshotArrays` (sorted, deduplicated CSR) per round.

    ``rounds`` holds one ``(m, 2)`` array of undirected edges per round,
    in any orientation and with duplicates allowed.  All rounds are keyed
    ``r·n² + u·n + v`` in both orientations and deduplicated by a single
    sort; each round's arrays are read-only views into the shared result.
    Self-loops and node ids outside ``0 .. n-1`` raise ``ValueError``.
    """
    parts = [_edge_array(e) for e in rounds]
    count = len(parts)
    edges = np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
    _check_edges(n, edges)
    offsets = np.repeat(
        np.arange(count, dtype=np.int64) * n * n, [len(e) for e in parts]
    )
    u, v = edges[:, 0], edges[:, 1]
    # np.unique by sort-and-mask: numpy's hash-based unique is several
    # times slower on these key arrays
    keys = np.sort(np.concatenate([offsets + u * n + v, offsets + v * n + u]))
    fresh = np.empty(keys.shape[0], dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    rows, indices = np.divmod(keys, max(n, 1))  # no keys at all when n == 0
    degrees = np.bincount(rows, minlength=count * n).reshape(count, n)
    indptr = np.zeros((count, n + 1), dtype=np.int64)
    np.cumsum(degrees, axis=1, out=indptr[:, 1:])
    bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(indptr[:, -1], out=bounds[1:])
    for shared in (indptr, indices, degrees):
        shared.flags.writeable = False
    return [
        SnapshotArrays(
            indptr=indptr[r],
            indices=indices[bounds[r]:bounds[r + 1]],
            degrees=degrees[r],
            roles=None,
            head_of=None,
            head_adjacent=None,
        )
        for r in range(count)
    ]


def head_adjacency(edges: np.ndarray, head_of: np.ndarray) -> np.ndarray:
    """Per node: whether one of ``edges`` joins it to its head.

    ``edges`` is an ``(m, 2)`` array on nodes ``0 .. len(head_of)-1``; the
    result is :attr:`SnapshotArrays.head_adjacent` for ``head_of``
    (``-1``, unaffiliated, never matches).
    """
    u, v = edges[:, 0], edges[:, 1]
    out = np.zeros(head_of.shape[0], dtype=bool)
    out[u[head_of[u] == v]] = True
    out[v[head_of[v] == u]] = True
    return out


def _adjacency(arrs: SnapshotArrays) -> Tuple[FrozenSet[int], ...]:
    """Materialise per-node neighbour frozensets from CSR arrays.

    The one place frozenset adjacency is built from arrays; array-first
    paths (generators, vectorised tiers, certifiers, cache) never call it.
    """
    indices = arrs.indices.tolist()
    bounds = arrs.indptr.tolist()
    return tuple(
        frozenset(indices[bounds[v]:bounds[v + 1]])
        for v in range(len(bounds) - 1)
    )


#: Marks a :class:`Snapshot` view not yet materialised from its arrays.
_LAZY = object()


class Snapshot:
    """Topology (and optionally hierarchy) of one round.

    The representation is :meth:`arrays` (:class:`SnapshotArrays`).  A
    snapshot built from arrays (:meth:`from_arrays`, :meth:`from_edges`)
    exposes ``adj``, ``roles`` and ``head_of`` as lazy views, materialised
    on first access and memoized.  One built from ``adj=`` builds its
    arrays at construction, with the checks of :meth:`from_edges` plus
    symmetry, and keeps the given sequences as its views.  Either way the
    two forms agree, and equality, hashing and pickling depend on the
    content only.

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

    def __init__(
        self,
        adj: Sequence[FrozenSet[int]],
        roles: Optional[Sequence[Role]] = None,
        head_of: Optional[Sequence[Optional[int]]] = None,
    ) -> None:
        n = len(adj)
        pairs = np.fromiter(
            (x for v, s in enumerate(adj) for u in s for x in (v, u)),
            dtype=np.int64,
        ).reshape(-1, 2)
        arrays = Snapshot.from_edges(
            n, pairs, roles=roles, head_of=head_of
        ).arrays()
        if int(arrays.indptr[-1]) != pairs.shape[0]:
            # the CSR holds each listed pair in both orientations, once: a
            # count mismatch is a one-sided pair or a repeated neighbour
            missing = ~np.isin(
                pairs[:, 1] * n + pairs[:, 0], pairs[:, 0] * n + pairs[:, 1]
            )
            if not missing.any():
                raise ValueError("adjacency lists a neighbour twice")
            v, u = (int(x) for x in pairs[int(np.argmax(missing))])
            raise ValueError(
                f"adjacency is not symmetric: {u} in adj[{v}] but "
                f"{v} not in adj[{u}]"
            )
        d = self.__dict__
        d["_n"] = n
        d["_adj"] = adj
        d["_roles"] = roles
        d["_head_of"] = head_of
        d["_memo_cache"] = {"arrays": arrays}

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # -- memoization -----------------------------------------------------
    #
    # Snapshots are immutable, yet algorithms and checkers re-ask the same
    # derived questions (heads, edge set, clusters) every round.  Results
    # — the arrays included — are cached in a plain dict kept out of
    # equality, hashing and pickling.

    def _memo(self) -> dict:
        return self.__dict__["_memo_cache"]

    # -- construction ----------------------------------------------------

    @classmethod
    def from_arrays(cls, arrays: SnapshotArrays) -> "Snapshot":
        """A snapshot whose representation is ``arrays`` (not copied)."""
        snap = cls.__new__(cls)
        d = snap.__dict__
        d["_n"] = int(arrays.degrees.shape[0])
        d["_adj"] = d["_roles"] = d["_head_of"] = _LAZY
        d["_memo_cache"] = {"arrays": arrays}
        return snap

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]],
        roles: Optional[Sequence[Role]] = None,
        head_of: Optional[Sequence[Optional[int]]] = None,
    ) -> "Snapshot":
        """Build a snapshot from an undirected edge list (pairs or an
        ``(m, 2)`` array) plus optional hierarchy maps.

        Duplicate edges and both orientations are harmless; self-loops and
        node ids outside ``0 .. n-1`` raise ``ValueError``.
        """
        edges = _edge_array(edges)
        (arrays,) = csr_rounds(n, [edges])
        role_codes = heads = head_adjacent = None
        if roles is not None:
            role_codes = np.array([ROLE_CODES[r] for r in roles], dtype=np.int8)
        if head_of is not None:
            heads = np.array(
                [-1 if h is None else h for h in head_of], dtype=np.int64
            )
        for name, arr in (("roles", role_codes), ("head_of", heads)):
            if arr is not None and arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} entries, expected n={n}")
        if heads is not None:
            head_adjacent = head_adjacency(edges, heads)
        return cls.from_arrays(replace(
            arrays, roles=role_codes, head_of=heads, head_adjacent=head_adjacent
        ))

    @classmethod
    def from_networkx(cls, graph, roles=None, head_of=None) -> "Snapshot":
        """Build a snapshot from a :class:`networkx.Graph` on nodes 0..n-1."""
        n = graph.number_of_nodes()
        return cls.from_edges(n, graph.edges(), roles=roles, head_of=head_of)

    # -- lazy views ------------------------------------------------------

    @property
    def adj(self) -> Sequence[FrozenSet[int]]:
        """Per-node neighbour frozensets (materialised on first access)."""
        adj = self.__dict__["_adj"]
        if adj is _LAZY:
            adj = self.__dict__["_adj"] = _adjacency(self.arrays())
        return adj

    @property
    def roles(self) -> Optional[Sequence[Role]]:
        """Per-node roles, or ``None`` for a flat snapshot."""
        roles = self.__dict__["_roles"]
        if roles is _LAZY:
            codes = self.arrays().roles
            roles = None if codes is None else tuple(
                _ROLE_BY_CODE[c] for c in codes.tolist()
            )
            self.__dict__["_roles"] = roles
        return roles

    @property
    def head_of(self) -> Optional[Sequence[Optional[int]]]:
        """Per-node cluster head ids (``None`` = unaffiliated), or ``None``
        for a flat snapshot."""
        head_of = self.__dict__["_head_of"]
        if head_of is _LAZY:
            heads = self.arrays().head_of
            head_of = None if heads is None else tuple(
                None if h < 0 else h for h in heads.tolist()
            )
            self.__dict__["_head_of"] = head_of
        return head_of

    # -- value semantics -----------------------------------------------------

    def _content(self) -> Tuple[Optional[bytes], ...]:
        """CSR and hierarchy arrays as little-endian int64 bytes: what
        equality, hashing and pickling depend on."""
        arrs = self.arrays()
        return tuple(
            None if a is None else a.astype("<i8", copy=False).tobytes()
            for a in (arrs.indptr, arrs.indices, arrs.roles, arrs.head_of)
        )

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, Snapshot):
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        cache = self._memo()
        cached = cache.get("hash")
        if cached is None:
            cached = cache["hash"] = hash(self._content())
        return cached

    def __reduce__(self):
        return (Snapshot.from_arrays, (self.arrays(),))

    def __repr__(self) -> str:
        arrs = self.arrays()
        return (
            f"Snapshot(n={self._n}, edges={int(arrs.indptr[-1]) // 2}, "
            f"clustered={self.clustered})"
        )

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    def neighbors(self, v: int) -> FrozenSet[int]:
        """Neighbours of ``v`` this round."""
        return self.adj[v]

    def degree(self, v: int) -> int:
        """Degree of ``v`` this round."""
        return int(self.arrays().degrees[v])

    def edges(self) -> List[Tuple[int, int]]:
        """Undirected edge list with ``u < v``, ascending (a fresh list per
        call)."""
        cache = self._memo()
        cached = cache.get("edges")
        if cached is None:
            arrs = self.arrays()
            rows = np.repeat(np.arange(self._n, dtype=np.int64), arrs.degrees)
            upper = rows < arrs.indices
            cached = tuple(zip(rows[upper].tolist(), arrs.indices[upper].tolist()))
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
        arrs = self.arrays()
        return arrs.roles is not None and arrs.head_of is not None

    # -- hierarchy queries -------------------------------------------------

    def heads(self) -> FrozenSet[int]:
        """The cluster-head set :math:`V_h` of this round."""
        self._require_clustered()
        cache = self._memo()
        cached = cache.get("heads")
        if cached is None:
            roles = self.arrays().roles
            cached = frozenset(np.flatnonzero(roles == _HEAD).tolist())
            cache["heads"] = cached
        return cached

    def cluster_members(self, head: int) -> FrozenSet[int]:
        """The member set :math:`M_k` of the cluster headed by ``head``.

        Includes the head itself and any gateways affiliated to it, i.e.
        everyone whose ``I(v)`` equals ``head``.
        """
        self._require_clustered()
        return self.clusters().get(head, frozenset())

    def clusters(self) -> Dict[int, FrozenSet[int]]:
        """All clusters as ``{head id: member set}`` (members include head)."""
        self._require_clustered()
        cache = self._memo()
        cached = cache.get("clusters")
        if cached is None:
            out: Dict[int, List[int]] = {}
            for v, h in enumerate(self.arrays().head_of.tolist()):
                if h >= 0:
                    out.setdefault(h, []).append(v)
            cached = {h: frozenset(vs) for h, vs in out.items()}
            cache["clusters"] = cached
        return dict(cached)

    # -- numpy views -------------------------------------------------------

    def arrays(self) -> SnapshotArrays:
        """This snapshot as flat numpy arrays (see :class:`SnapshotArrays`)."""
        return self._memo()["arrays"]

    # -- validation --------------------------------------------------------

    def validate_hierarchy(self) -> None:
        """Check the CTVG structural invariants; raise ``ValueError`` on breach.

        Enforced (paper, Section III-A):

        * a head's cluster id is its own id;
        * every affiliated non-head's head is an actual head **and** a direct
          neighbour ("the members of a cluster are neighbors of the cluster
          head");
        * gateways are affiliated like any ordinary node.

        The lowest-numbered offending node is reported.
        """
        _validate_hierarchy(self.arrays())

    def _require_clustered(self) -> None:
        _require_clustered(self.arrays())


def _require_clustered(arrs: SnapshotArrays) -> None:
    if arrs.roles is None or arrs.head_of is None:
        raise ValueError("snapshot carries no hierarchy information")


def _validate_hierarchy(arrs: SnapshotArrays) -> None:
    """:meth:`Snapshot.validate_hierarchy` on one round's arrays."""
    _require_clustered(arrs)
    n = arrs.degrees.shape[0]
    head_of = arrs.head_of
    is_head = arrs.roles == _HEAD
    affiliated = ~is_head & (head_of >= 0)
    known = affiliated & (head_of < n)
    joins_head = np.zeros(n, dtype=bool)
    joins_head[known] = is_head[head_of[known]]
    bad = (is_head & (head_of != np.arange(n))) | (
        affiliated & ~(joins_head & arrs.head_adjacent)
    )
    if not bad.any():
        return
    v = int(np.argmax(bad))
    h = int(head_of[v])
    if is_head[v]:
        shown = None if h < 0 else h
        raise ValueError(f"head {v} has cluster id {shown}, expected itself")
    if not joins_head[v]:
        raise ValueError(f"node {v} affiliated to non-head {h}")
    raise ValueError(
        f"node {v} affiliated to head {h} but they are not adjacent"
    )


_EXTEND_MODES = ("hold", "cycle", "strict")


class GraphTrace:
    """A dynamic network: one :class:`SnapshotArrays` per recorded round.

    The one container for a sequence of rounds.  Every generator in
    :mod:`repro.graphs.generators` produces one, every property checker
    in :mod:`repro.graphs.properties` consumes one, and the engines run
    on it: the vectorised tiers read :meth:`snapshot_arrays`, the
    reference engine :meth:`snapshot`.  ``GraphTrace(snapshots, extend)``
    takes a sequence of :class:`Snapshot` or :class:`SnapshotArrays` (a
    single :class:`SnapshotArrays` is a one-round trace), all on the
    same node count.  Adjacency must be symmetric with each node's
    neighbour segment sorted ascending — what :func:`csr_rounds` and
    :meth:`Snapshot.arrays` produce.

    Rounds past the horizon follow ``extend``:

    * ``"hold"`` (default) — the last round repeats forever (the network
      "freezes"; safe for algorithms whose round bound exceeds the
      recorded horizon, and a one-round trace is a static network);
    * ``"cycle"`` — the trace repeats periodically;
    * ``"strict"`` — an ``IndexError`` is raised (for tests that must not
      silently run past the scenario).

    :meth:`snapshot` returns a lazy :class:`Snapshot` view of the round's
    arrays, memoized per arrays object, so a round repeated by the policy
    or shared between rounds materialises once; a trace built from
    snapshots hands those same objects back.  Traces are immutable:
    equality and pickling depend on the policy and the rounds' content
    only (see :meth:`digest`).
    """

    __slots__ = ("_rounds", "extend", "_snap_memo", "_digest", "_key_memo")

    def __init__(self, snapshots, extend: str = "hold") -> None:
        if isinstance(snapshots, SnapshotArrays):
            snapshots = (snapshots,)
        if extend not in _EXTEND_MODES:
            raise ValueError(
                f"extend must be one of {_EXTEND_MODES}, got {extend!r}"
            )
        memo: Dict[int, Tuple[SnapshotArrays, Snapshot]] = {}
        rounds = []
        for item in snapshots:
            if isinstance(item, Snapshot):
                arrs = item.arrays()
                memo.setdefault(id(arrs), (arrs, item))
                item = arrs
            rounds.append(item)
        if not rounds:
            raise ValueError("a trace needs at least one snapshot")
        n = rounds[0].degrees.shape[0]
        for i, arrs in enumerate(rounds):
            size = arrs.degrees.shape[0]
            if size != n or arrs.indptr.shape[0] != n + 1:
                raise ValueError(f"snapshot {i} has {size} nodes, expected {n}")
        set_ = object.__setattr__
        set_(self, "_rounds", tuple(rounds))
        set_(self, "extend", extend)
        # {id(arrays): (arrays, view)}; the trace holds every arrays object,
        # so an id is never reused while its entry lives
        set_(self, "_snap_memo", memo)
        set_(self, "_digest", None)
        # {round: its edge keys}, filled by repro.graphs.properties
        set_(self, "_key_memo", {})

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    # -- DynamicNetwork protocol ------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self._rounds[0].degrees.shape[0])

    def snapshot_arrays(self, r: int) -> SnapshotArrays:
        """Round ``r``'s arrays, applying the extension policy."""
        rounds = self._rounds
        if 0 <= r < len(rounds):
            return rounds[r]
        if r < 0:
            raise IndexError(f"round index must be non-negative, got {r}")
        if self.extend == "hold":
            return rounds[-1]
        if self.extend == "cycle":
            return rounds[r % len(rounds)]
        raise IndexError(
            f"round {r} beyond recorded horizon {len(rounds)} (strict trace)"
        )

    def snapshot(self, r: int) -> Snapshot:
        """Round ``r`` as a :class:`Snapshot` view of its arrays."""
        arrs = self.snapshot_arrays(r)
        hit = self._snap_memo.get(id(arrs))
        if hit is not None:
            return hit[1]
        snap = Snapshot.from_arrays(arrs)
        self._snap_memo[id(arrs)] = (arrs, snap)
        return snap

    # -- container conveniences -------------------------------------------

    @property
    def horizon(self) -> int:
        """Number of recorded rounds."""
        return len(self._rounds)

    @property
    def snapshots(self) -> List[Snapshot]:
        """The recorded rounds as :class:`Snapshot` views (a fresh list)."""
        return [self.snapshot(r) for r in range(len(self._rounds))]

    def __len__(self) -> int:
        return len(self._rounds)

    def __iter__(self):
        return (self.snapshot(r) for r in range(len(self._rounds)))

    def __getitem__(self, r: int) -> Snapshot:
        return self.snapshot(range(len(self._rounds))[r])

    @classmethod
    def constant(cls, snapshot, rounds: int = 1, extend: str = "hold") -> "GraphTrace":
        """A static network: the same snapshot for ``rounds`` rounds."""
        if rounds < 1:
            raise ValueError(f"need at least one round, got {rounds}")
        return cls([snapshot] * rounds, extend=extend)

    def sliced(self, start: int, stop: int) -> "GraphTrace":
        """Sub-trace of rounds ``[start, stop)`` with the same policy."""
        if not (0 <= start < stop <= self.horizon):
            raise ValueError(
                f"invalid slice [{start}, {stop}) for horizon {self.horizon}"
            )
        return GraphTrace(
            [self.snapshot(r) for r in range(start, stop)], extend=self.extend
        )

    # -- hierarchy ----------------------------------------------------------

    @property
    def clustered(self) -> bool:
        """Whether every round carries hierarchy information."""
        return all(
            arrs.roles is not None and arrs.head_of is not None for arrs in self._rounds
        )

    def hierarchy_rows(self, stop: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Role codes and head ids of rounds ``0 .. stop-1`` (default: the
        horizon), stacked one row per round; ``ValueError`` on a flat round."""
        rounds = [
            self.snapshot_arrays(r)
            for r in range(self.horizon if stop is None else stop)
        ]
        for arrs in rounds:
            _require_clustered(arrs)
        return (
            np.stack([arrs.roles for arrs in rounds]),
            np.stack([arrs.head_of for arrs in rounds]),
        )

    def validate_hierarchy(self) -> None:
        """Validate CTVG structural invariants on every recorded round."""
        for r, arrs in enumerate(self._rounds):
            try:
                _validate_hierarchy(arrs)
            except ValueError as exc:
                raise ValueError(f"round {r}: {exc}") from exc

    # -- value semantics ----------------------------------------------------

    def digest(self) -> bytes:
        """One SHA-256 per recorded round, concatenated (memoized).

        A round's digest covers its CSR ``indptr`` and ``indices`` as
        little-endian int64, then each hierarchy array it carries behind
        its own tag: ``roles`` as int8 :data:`ROLE_CODES` and ``head_of``
        as int64 with ``-1`` for "unaffiliated".  A flat round has
        neither tag; ``head_adjacent`` is derived from the rest and left
        out.  Rounds sharing one arrays object are hashed once.
        """
        digest = self._digest
        if digest is None:
            seen: Dict[int, bytes] = {}
            for arrs in self._rounds:
                if id(arrs) not in seen:
                    parts = [
                        arrs.indptr.astype("<i8", copy=False).tobytes(),
                        arrs.indices.astype("<i8", copy=False).tobytes(),
                    ]
                    if arrs.roles is not None:
                        parts += [b"roles", arrs.roles.astype("<i1", copy=False).tobytes()]
                    if arrs.head_of is not None:
                        parts += [b"head_of", arrs.head_of.astype("<i8", copy=False).tobytes()]
                    seen[id(arrs)] = hashlib.sha256(b"".join(parts)).digest()
            digest = b"".join(seen[id(arrs)] for arrs in self._rounds)
            object.__setattr__(self, "_digest", digest)
        return digest

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphTrace):
            return NotImplemented
        return self.extend == other.extend and self.digest() == other.digest()

    def __reduce__(self):
        return (GraphTrace, (self._rounds, self.extend))

    def __repr__(self) -> str:
        return f"GraphTrace(n={self.n}, horizon={self.horizon}, extend={self.extend!r})"


#: The array-native name the vectorised benchmarks use for a trace.
CSRNetwork = GraphTrace

"""Machine-checkable versions of the paper's stability definitions.

The paper's Section III defines a lattice of properties (Definitions 2–8,
Figure 2) describing how stable a cluster hierarchy is over time, plus it
builds on Kuhn–Lynch–Oshman's *T-interval connectivity*.  Scenario
generators in this library are always paired with these checkers so that
every benchmark runs on a *verified* instance of the claimed model class.

Window semantics
----------------
Each definition quantifies over intervals of ``T`` consecutive rounds.  Two
interpretations are supported:

* ``windows="blocks"`` — the aligned phases ``[0,T), [T,2T), …`` that the
  paper's algorithms actually operate on (a phase boundary is where
  hierarchies may change and TS sets are reset).  This is the default and
  what the generators guarantee.
* ``windows="sliding"`` — *every* window ``[i, i+T)``, the stricter reading
  used in KLO's original T-interval connectivity definition.

Sliding implies blocks for the same ``T``; the property tests assert this.

The window kernel
-----------------
Definitions 5–7 and T-interval connectivity, in either reading, are
checked for every window of a trace at once (:class:`_WindowGraphs`).
Each edge of each round carries its *run*, the number of consecutive
rounds from that one that hold it, so window ``[s, e)``'s intersection
graph is the round-``s`` edges whose run is at least ``e − s``.  The
windows' graphs become one block-diagonal CSR, and reachability grows
one hop per step on the engine's own segment-OR
(:func:`repro.sim.fastpath.segment_or`).  By the bottleneck-spanning-tree
property, a head set's Definition 6 bound is at most ``ℓ`` exactly when
its ℓ-threshold head graph (heads joined when within ``ℓ`` hops) is
connected, so ``ℓ`` steps decide Definition 7 with hop bound ``ℓ``; with
runs as edge widths, the same property gives every start round's longest
connected window (:func:`max_interval_connectivity`).
"""

from __future__ import annotations

from itertools import chain
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..roles import Role
from ..sim.topology import ROLE_CODES, SnapshotArrays
from .trace import GraphTrace

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "definition_report",
    "head_hop_distance",
    "head_set_stable",
    "cluster_stable",
    "hierarchy_stable",
    "head_connectivity_witness",
    "head_connected",
    "is_hinet",
    "is_T_interval_connected",
    "is_T_L_head_connected",
    "max_block_stable_hierarchy",
    "max_interval_connectivity",
    "realized_hop_bound",
    "windows_of",
]

_HEAD = ROLE_CODES[Role.HEAD]


# ---------------------------------------------------------------------------
# window machinery
# ---------------------------------------------------------------------------

def windows_of(horizon: int, T: int, windows: str = "blocks") -> Iterator[Tuple[int, int]]:
    """Yield the ``[start, stop)`` intervals a ``T``-interval property quantifies over.

    For ``"blocks"``, a trailing partial block (shorter than ``T``) is also
    yielded and must satisfy the property — a scenario claiming phase
    structure cannot misbehave in its final partial phase.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if windows == "blocks":
        start = 0
        while start < horizon:
            yield (start, min(start + T, horizon))
            start += T
    elif windows == "sliding":
        if horizon <= T:
            yield (0, horizon)
        else:
            for start in range(horizon - T + 1):
                yield (start, start + T)
    else:
        raise ValueError(f"windows must be 'blocks' or 'sliding', got {windows!r}")


# ---------------------------------------------------------------------------
# the window kernel: every window of a trace in one batch
# ---------------------------------------------------------------------------

#: Elements one kernel batch may hold: windows are taken in consecutive
#: groups whose (window, edge) keys and node rows stay under it, and head
#: graphs are closed in slices of at most this many head pairs, so long
#: sliding traces are certified in bounded memory.
_BATCH_BUDGET = 1 << 22


def _edge_keys(arrs: SnapshotArrays) -> np.ndarray:
    """``u * n + v`` for every edge ``u < v`` of one round, ascending."""
    n = arrs.degrees.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), arrs.degrees)
    upper = rows < arrs.indices
    return rows[upper] * n + arrs.indices[upper]


def _round_keys(trace: GraphTrace, r: int) -> np.ndarray:
    """Round ``r``'s :func:`_edge_keys`, memoized on the trace."""
    memo = getattr(trace, "_key_memo", None)
    if memo is None:
        return _edge_keys(trace.snapshot_arrays(r))
    keys = memo.get(r)
    if keys is None:
        keys = memo[r] = _edge_keys(trace.snapshot_arrays(r))
        keys.flags.writeable = False  # shared by every later check
    return keys


def _edge_runs(
    trace: GraphTrace, lo: int, hi: int, runs: bool
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The edge keys of rounds ``[lo, hi)``, round after round, the offset
    of each round's keys, and (with ``runs``) each edge's *run*: the
    number of consecutive rounds in ``[its round, hi)`` that hold it.

    Each round's keys are extracted once per trace and memoized on it,
    as :meth:`~repro.sim.topology.GraphTrace.digest` is, so checks that
    read the same rounds share one extraction.  A stable sort by key
    turns the round-major list key-major with rounds ascending; a run
    continues while the key repeats in the next round.
    """
    parts = [_round_keys(trace, r) for r in range(lo, hi)]
    sizes = np.fromiter(map(len, parts), np.int64, len(parts))
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    keys = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    if not runs or keys.size == 0:
        return keys, offsets, keys if runs else None
    # least-significant-digit radix sort on 16-bit digits: numpy's stable
    # argsort of 16-bit integers is a radix sort, several times faster
    # than its timsort of the int64 keys
    order = np.arange(keys.size)
    top = int(keys.max())
    shift = 0
    while shift == 0 or top >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    key = keys[order]
    rnd = np.repeat(np.arange(len(parts), dtype=np.int64), sizes)[order]
    fresh = np.ones(key.size, dtype=bool)
    fresh[1:] = (key[1:] != key[:-1]) | (rnd[1:] != rnd[:-1] + 1)
    firsts = np.flatnonzero(fresh)
    last = rnd[np.append(firsts[1:], key.size) - 1]
    run = np.empty_like(keys)
    run[order] = np.repeat(last, np.diff(np.append(firsts, key.size))) - rnd + 1
    return keys, offsets, run


class _WindowGraphs:
    """Graphs of a run of windows as one block-diagonal CSR over ``W * n`` rows.

    ``keys`` holds ``w * n² + u * n + v`` for each edge ``u < v`` of
    window ``w``'s graph; window ``w``'s node ``v`` is row ``w * n + v``.
    :meth:`step` grows packed per-row reach sets by one hop in every
    window at once.  ``runs``, when given, weighs each edge (in ``keys``
    order) for :meth:`longest`.
    """

    def __init__(
        self, n: int, windows: int, keys: np.ndarray, runs: Optional[np.ndarray] = None
    ) -> None:
        self.n = n
        self.windows = windows
        self.keys = keys
        w, rest = np.divmod(keys, n * n)
        u, v = np.divmod(rest, n)
        src = np.concatenate([w * n + u, w * n + v])
        dst = np.concatenate([w * n + v, w * n + u])
        order = np.argsort(src, kind="stable")
        self.indices = dst[order]
        self.runs = None if runs is None else np.concatenate([runs, runs])[order]
        self.indptr = np.zeros(windows * n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=windows * n), out=self.indptr[1:])

    def step(self, state: np.ndarray) -> np.ndarray:
        """``state`` with every row's reach extended by one hop."""
        from ..sim.fastpath import segment_or

        return state | segment_or(self.indptr, self.indices, state)

    def spanning(self) -> np.ndarray:
        """Per window: whether its graph connects all ``n`` nodes (a flood
        from node 0 reaches every row)."""
        n = self.n
        state = np.zeros((self.windows * n, 1), dtype=np.uint64)
        state[::n] = 1
        while not state.all():
            grown = self.step(state)
            if np.array_equal(grown, state):
                break
            state = grown
        return state.reshape(self.windows, n).all(axis=1)

    def longest(self, caps: np.ndarray) -> np.ndarray:
        """Per window: the widest ``t ≤ caps[w]`` whose edges of run at
        least ``t`` connect all ``n`` nodes, ``0`` if none does — the
        narrowest row of a widest-path flood from node 0, seeded with
        the cap, each row taking the best over its neighbours of the
        narrower of their width and the edge's run."""
        n = self.n
        state = np.zeros(self.windows * n, dtype=np.int64)
        state[::n] = caps
        rows = np.flatnonzero(np.diff(self.indptr))
        starts = self.indptr[rows]
        while rows.size:
            via = np.maximum.reduceat(np.minimum(state[self.indices], self.runs), starts)
            grown = state.copy()
            grown[rows] = np.maximum(state[rows], via)
            if np.array_equal(grown, state):
                break
            state = grown
        return state.reshape(self.windows, n).min(axis=1)

    def hop_bounds(
        self, heads: Sequence[Iterable[int]], limit: Optional[int] = None
    ) -> np.ndarray:
        """Per window: the Definition 6 bound of ``heads[w]`` in its graph.

        Step ``ℓ`` leaves each head's row holding the heads within ``ℓ``
        hops; a window's bound is the first ``ℓ`` at which that
        ℓ-threshold head graph is connected.  Entries are the bound;
        ``-1`` where the heads lie in different components (reach stopped
        growing first); ``limit + 1`` where ``limit`` steps settled
        neither.  Zero or one head is bound 0.
        """
        from ..obs.observer import words_for

        n, windows = self.n, self.windows
        ranked = [sorted(h) for h in heads]
        sizes = np.array([len(h) for h in ranked], dtype=np.int64)
        bounds = np.zeros(windows, dtype=np.int64)
        pending = np.flatnonzero(sizes > 1)
        if pending.size == 0:
            return bounds
        # head of rank i in window w is seeded as bit i of row w * n + head
        width = int(sizes.max())
        win = np.repeat(np.arange(windows), sizes)
        rank = np.arange(win.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        rows = win * n + np.fromiter(chain.from_iterable(ranked), np.int64, win.size)
        state = np.zeros((windows * n, words_for(width)), dtype=np.uint64)
        state[rows, rank >> 6] = np.left_shift(np.uint64(1), (rank & 63).astype(np.uint64))
        head_rows = np.zeros((windows, width), dtype=np.int64)
        head_rows[win, rank] = rows
        valid = np.arange(width) < sizes[:, None]
        step = 0
        while pending.size and (limit is None or step < limit):
            grown = self.step(state)
            if np.array_equal(grown, state):
                bounds[pending] = -1
                return bounds
            state, step = grown, step + 1
            done = _heads_linked(state, head_rows[pending], valid[pending])
            bounds[pending[done]] = step
            pending = pending[~done]
        bounds[pending] = -1 if limit is None else limit + 1
        return bounds


def _heads_linked(
    state: np.ndarray, head_rows: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Per window: whether its head graph is connected, head ``i`` joined to
    head ``j`` when bit ``j`` is set in ``state[head_rows[w, i]]``.

    A batched closure from head 0 over ``(windows, h, h)`` adjacency,
    taken in slices of at most :data:`_BATCH_BUDGET` head pairs.
    """
    windows, width = head_rows.shape
    out = np.empty(windows, dtype=bool)
    chunk = max(1, _BATCH_BUDGET // (width * width))
    for lo in range(0, windows, chunk):
        rows, ok = head_rows[lo:lo + chunk], valid[lo:lo + chunk]
        packed = np.ascontiguousarray(state[rows], dtype="<u8").view(np.uint8)
        bits = np.unpackbits(packed, axis=-1, bitorder="little")[..., :width]
        adj = (bits.astype(bool) & ok[:, :, None]).astype(np.float32)
        reach = adj[:, 0, :] > 0
        while True:
            grown = reach | (np.matmul(reach[:, None, :], adj)[:, 0, :] > 0)
            if np.array_equal(grown, reach):
                break
            reach = grown
        out[lo:lo + chunk] = (reach | ~ok).all(axis=1)
    return out


def _window_graphs(
    trace: GraphTrace, spans: Sequence[Tuple[int, int]], weighted: bool = False
) -> Iterator[Tuple[Sequence[Tuple[int, int]], _WindowGraphs]]:
    """Intersection graphs of ``spans`` in consecutive batches under
    :data:`_BATCH_BUDGET`, yielded with the spans each batch covers.

    Window ``[start, stop)``'s intersection graph is the edges of round
    ``start`` whose run lasts ``stop - start`` rounds, so runs are taken
    over the rounds the spans cover and only when a span is wider than
    one round (or ``weighted`` asks for them as :attr:`_WindowGraphs.runs`).
    """
    n, nn = trace.n, trace.n * trace.n
    lo = min(start for start, _ in spans)
    hi = max(stop for _, stop in spans)
    wide = weighted or any(stop - start > 1 for start, stop in spans)
    keys, offsets, runs = _edge_runs(trace, lo, hi, wide)

    def graphs(batch: Sequence[Tuple[int, int]]) -> _WindowGraphs:
        first = np.array([start for start, _ in batch], dtype=np.int64) - lo
        width = np.array([stop - start for start, stop in batch], dtype=np.int64)
        sizes = offsets[first + 1] - offsets[first]
        win = np.repeat(np.arange(len(batch), dtype=np.int64), sizes)
        at = np.arange(win.size) + np.repeat(offsets[first] - (np.cumsum(sizes) - sizes), sizes)
        picked = keys[at] + win * nn
        if runs is None:  # one-round windows keep every edge
            return _WindowGraphs(n, len(batch), picked)
        kept = runs[at] >= width[win]
        return _WindowGraphs(
            n, len(batch), picked[kept], runs[at][kept] if weighted else None
        )

    batch: List[Tuple[int, int]] = []
    cost = 0
    for start, stop in spans:
        size = n + int(offsets[start - lo + 1] - offsets[start - lo])
        if batch and cost + size > _BATCH_BUDGET:
            yield batch, graphs(batch)
            batch, cost = [], 0
        batch.append((start, stop))
        cost += size
    if batch:
        yield batch, graphs(batch)


def _hop_bounds(
    trace: GraphTrace, T: int, windows: str, limit: Optional[int] = None
) -> Iterator[np.ndarray]:
    """:meth:`_WindowGraphs.hop_bounds` of every T-interval, batch by batch,
    for the heads of each window's first round."""
    spans = list(windows_of(trace.horizon, T, windows))
    for batch, graphs in _window_graphs(trace, spans):
        heads = [trace.snapshot(start).heads() for start, _ in batch]
        yield graphs.hop_bounds(heads, limit)


# ---------------------------------------------------------------------------
# Definitions 2-4: stability of the hierarchy
# ---------------------------------------------------------------------------

def _change_points(*rows: np.ndarray) -> np.ndarray:
    """Per round ``r``: whether any of the stacked ``(horizon, n)`` ``rows``
    differs from round ``r - 1`` (never at round 0)."""
    changed = np.zeros(rows[0].shape[0], dtype=bool)
    for row in rows:
        changed[1:] |= (row[1:] != row[:-1]).any(axis=1)
    return changed


def _stable_in_all_windows(
    horizon: int, T: int, windows: str, changed: np.ndarray
) -> bool:
    """Whether no T-interval holds a change point after its first round.

    With ``S`` the prefix count of ``changed``, window ``[start, stop)``
    is stable iff ``S[stop-1] == S[start]``, so any number of windows —
    sliding ones overlap heavily — is checked after one pass over the
    trace.
    """
    prefix = np.cumsum(changed)
    return all(
        prefix[stop - 1] == prefix[start]
        for start, stop in windows_of(horizon, T, windows)
    )


def head_set_stable(trace: GraphTrace, T: int, windows: str = "blocks") -> bool:
    """Definition 2 (:math:`T_s`): the head set is constant on every T-interval."""
    roles, _ = trace.hierarchy_rows()
    return _stable_in_all_windows(
        trace.horizon, T, windows, _change_points(roles == _HEAD)
    )


def cluster_stable(trace: GraphTrace, cluster: int, T: int, windows: str = "blocks") -> bool:
    """Definition 3 (:math:`T_c`): cluster ``cluster``'s member set is constant on every T-interval.

    A round in which the cluster does not exist contributes the empty set,
    so a cluster that disappears mid-interval is *not* stable.
    """
    _, heads = trace.hierarchy_rows()
    members = (heads == cluster) & (cluster >= 0)
    return _stable_in_all_windows(trace.horizon, T, windows, _change_points(members))


def hierarchy_stable(trace: GraphTrace, T: int, windows: str = "blocks") -> bool:
    """Definition 4 (:math:`T_h`): head set *and* every cluster constant on every T-interval.

    Checked directly on the full (roles, membership) maps, which is
    equivalent to Definition 2 plus Definition 3 for all clusters.
    """
    return _stable_in_all_windows(
        trace.horizon, T, windows, _change_points(*trace.hierarchy_rows())
    )


def max_block_stable_hierarchy(trace: GraphTrace) -> int:
    """Largest ``T`` for which :func:`hierarchy_stable` holds with aligned blocks.

    The hierarchy may only change at rounds that are multiples of ``T``, so
    the answer is the gcd of all change rounds; a trace that never changes
    is stable for any ``T`` and we return its horizon.
    """
    changes = np.flatnonzero(_change_points(*trace.hierarchy_rows()))
    if changes.size == 0:
        return trace.horizon
    return int(np.gcd.reduce(changes))


# ---------------------------------------------------------------------------
# Definitions 5-7: connectivity among cluster heads
# ---------------------------------------------------------------------------

def head_connectivity_witness(
    trace: GraphTrace, start: int, stop: int
) -> Optional[nx.Graph]:
    """Definition 5 witness: a connected Υ ⊆ every :math:`G_j`, ``j ∈ [start, stop)``,
    spanning the head set of round ``start``.

    Returns the connected component of the window's intersection graph that
    contains all those heads (a maximal valid Υ), or ``None`` if no valid Υ
    exists.  An empty or singleton head set is trivially connected.
    """
    import networkx as nx

    heads = trace.snapshot(start).heads()
    _, graphs = next(_window_graphs(trace, [(start, stop)]))
    u, v = np.divmod(graphs.keys, trace.n)
    inter = nx.Graph()
    inter.add_nodes_from(range(trace.n))
    inter.add_edges_from(zip(u.tolist(), v.tolist()))
    if len(heads) <= 1:
        return inter.subgraph(heads).copy()
    it = iter(heads)
    comp = nx.node_connected_component(inter, next(it))
    if not heads <= comp:
        return None
    return inter.subgraph(comp).copy()


def head_connected(trace: GraphTrace, T: int, windows: str = "blocks") -> bool:
    """Definition 5 (:math:`T_d`): every T-interval admits a stable connected
    subgraph spanning that interval's head set."""
    return realized_hop_bound(trace, T, windows) is not None


def head_hop_distance(graph: nx.Graph, heads: FrozenSet[int]) -> Optional[int]:
    """Definition 6: the L-hop connectivity parameter of ``heads`` in ``graph``.

    The smallest ``L`` such that, for every bipartition of the head set,
    some cross pair is within distance ``L`` — equivalently, the largest
    edge weight on a minimum spanning tree of the head-to-head shortest-path
    metric (a bottleneck value), and the smallest ``L`` whose ``L``-threshold
    head graph is connected (the window kernel's rule, run on ``graph`` as
    a single window).  Returns ``None`` if some pair of heads is
    disconnected in ``graph``; ``0`` for zero or one head.
    """
    heads = frozenset(heads)
    if len(heads) <= 1:
        return 0
    if not all(h in graph for h in heads):
        return None
    index = {v: i for i, v in enumerate(graph)}
    n = len(index)
    pairs = np.array(
        [(index[a], index[b]) for a, b in graph.edges() if a != b], dtype=np.int64
    ).reshape(-1, 2)
    keys = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    bound = int(_WindowGraphs(n, 1, keys).hop_bounds([[index[h] for h in heads]])[0])
    return None if bound < 0 else bound


def realized_hop_bound(trace: GraphTrace, T: int, windows: str = "blocks") -> Optional[int]:
    """Least hop bound ``L`` of Definition 7 over every T-interval, or ``None`` without a witness.

    The smallest ``L`` such that the trace has T-interval *L-hop* head
    connectivity, measured inside each window's witness Υ; ``None`` if
    some window has no witness at all (Definition 5 fails).  The window
    kernel steps every window at once until its ℓ-threshold head graph
    connects — the step count ``ℓ`` is that window's bound — or until
    reach stops growing with its heads still split (no witness).
    """
    worst = 0
    for bounds in _hop_bounds(trace, T, windows):
        if (bounds < 0).any():
            return None
        worst = max(worst, int(bounds.max()))
    return worst


def is_T_L_head_connected(
    trace: GraphTrace, T: int, L: int, windows: str = "blocks"
) -> bool:
    """Definition 7: T-interval head connectivity with hop bound ``L`` in Υ, in at most ``L`` kernel steps.

    Equivalent to ``realized_hop_bound(trace, T, windows) <= L``, but the
    window kernel stops after ``L`` steps: a window whose ℓ-threshold head
    graph is still split at ``ℓ = L`` fails, whether its bound exceeds
    ``L`` or it has no witness.
    """
    return all(
        ((bounds >= 0) & (bounds <= L)).all()
        for bounds in _hop_bounds(trace, T, windows, limit=L)
    )


# ---------------------------------------------------------------------------
# Definition 8 and the KLO baseline model
# ---------------------------------------------------------------------------

def is_hinet(trace: GraphTrace, T: int, L: int, windows: str = "blocks") -> bool:
    """Definition 8: the trace is a (T, L)-HiNet — T-interval stable hierarchy
    (Definition 4) plus T-interval L-hop cluster head connectivity
    (Definition 7)."""
    return hierarchy_stable(trace, T, windows) and is_T_L_head_connected(
        trace, T, L, windows
    )


def is_T_interval_connected(trace: GraphTrace, T: int, windows: str = "sliding") -> bool:
    """KLO's T-interval connectivity: every T-interval has a *stable*
    connected spanning subgraph (the intersection graph spans all nodes).

    Defaults to sliding windows, KLO's original quantification.  Either
    reading is one flood from node 0 per window in the window kernel,
    each window's graph being its first round's edges whose run of
    presence covers the window.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    spans = list(windows_of(trace.horizon, T, windows))
    return all(graphs.spanning().all() for _, graphs in _window_graphs(trace, spans))


def _longest_windows(trace: GraphTrace) -> np.ndarray:
    """Per start round ``i``: the longest connected window ``[i, i + T_i)``
    within the trace, ``0`` where round ``i`` itself is disconnected."""
    horizon = trace.horizon
    spans = [(i, i + 1) for i in range(horizon)]
    return np.concatenate([
        graphs.longest(horizon - np.array([start for start, _ in batch]))
        for batch, graphs in _window_graphs(trace, spans, weighted=True)
    ])


def max_interval_connectivity(trace: GraphTrace, windows: str = "sliding") -> int:
    """Largest ``T`` for which :func:`is_T_interval_connected` holds (0 if
    even single rounds are disconnected).

    Both readings follow from one vector, each start round's longest
    connected window ``T_i`` (Casteigts, Klasing, Neggaz and Peters):
    sliding ``T`` holds iff ``T_i ≥ T`` at every start ``i ≤ H − T``, and
    blocks ``T`` iff every block start ``s`` has ``T_s ≥ min(T, H − s)``.
    ``T_i`` is the bottleneck of round ``i``'s maximum spanning forest
    with the edges' runs as widths, found for every round in one
    widest-path flood of the window kernel.
    """
    if windows not in ("blocks", "sliding"):
        raise ValueError(f"windows must be 'blocks' or 'sliding', got {windows!r}")
    horizon = trace.horizon
    longest = _longest_windows(trace)
    Ts = np.arange(1, horizon + 1)
    if windows == "sliding":
        held = np.minimum.accumulate(longest)[horizon - Ts] >= Ts
    else:
        held = np.array([
            (longest[::T] >= np.minimum(T, horizon - np.arange(0, horizon, T))).all()
            for T in Ts.tolist()
        ])
    return int(Ts[held].max(initial=0))


# ---------------------------------------------------------------------------
# Figure 2: the definition lattice
# ---------------------------------------------------------------------------

def definition_report(
    trace: GraphTrace, T: int, L: int, windows: str = "blocks"
) -> Dict[str, bool]:
    """Evaluate every definition of Section III on one trace.

    The returned dict keys mirror Figure 2's tree:

    - ``"Ts"``   Definition 2, T-interval stable head set
    - ``"Tc"``   Definition 3, for *all* clusters ever observed
    - ``"Th"``   Definition 4, T-interval stable hierarchy
    - ``"Td"``   Definition 5, T-interval head connectivity
    - ``"Lhop"`` Definition 6/7, hop bound ≤ L inside each witness
    - ``"TdL"``  Definition 7, conjunction of Td and Lhop
    - ``"HiNet"`` Definition 8, conjunction of Th and TdL

    The lattice implications (HiNet ⇒ Th ∧ TdL; Th ⇒ Ts ∧ Tc;
    TdL ⇒ Td) hold by construction and are asserted in the tests.
    """
    roles, heads = trace.hierarchy_rows()
    horizon = trace.horizon
    ts = _stable_in_all_windows(horizon, T, windows, _change_points(roles == _HEAD))
    # every cluster ever observed keeps its members exactly when no node
    # joins, leaves or switches a cluster
    tc = _stable_in_all_windows(horizon, T, windows, _change_points(heads))
    th = _stable_in_all_windows(horizon, T, windows, _change_points(roles, heads))
    bound = realized_hop_bound(trace, T, windows)
    td = bound is not None
    lhop = bound is not None and bound <= L
    tdl = td and lhop
    return {
        "Ts": ts,
        "Tc": tc,
        "Th": th,
        "Td": td,
        "Lhop": lhop,
        "TdL": tdl,
        "HiNet": th and tdl,
    }

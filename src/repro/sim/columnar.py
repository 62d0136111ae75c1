"""The vectorised round loop: whole-network rounds as a handful of array ops.

Every node's token set is a row of a packed ``(n, W)`` ``uint64``
bit-matrix; the per-kind send and receive rules live in the kernels of
:mod:`repro.sim.fastpath`.  :func:`run_columnar` is the one round loop
both ``engine="fast"`` and ``engine="columnar"`` execute: topology →
crash stage → send → link transform → deliver → absorb → bookkeeping,
with the same accounting and stop rules as the reference engine, and
the same :class:`~repro.obs.RunObserver` feed into every obs consumer.

**Delivery.**  How a round's broadcasts reach their neighbours is picked
by :func:`select_delivery` from the run's inputs alone:

* **CSR segment-OR** (the default, at every n): scatter the round's
  broadcast payloads into a dense ``(n, W)`` matrix, gather it through
  the CSR ``indices`` and OR-reduce each adjacency segment with one
  ``np.bitwise_or.reduceat`` — the boolean spmm ``A · P``.  Link models
  become a boolean mask over the CSR edge array (suppressed gathered
  rows are zeroed, and zero rows are OR-neutral); crash-stop churn is
  row wipes plus a post-absorb re-zero of dead rows.
* **Flat scatter**: expand each broadcast into one (receiver, sender,
  payload) triple per edge.  It is the only correct path where the
  audience is fixed at transmit time but the message lands rounds later
  (``latency > 1``), and where causal attribution needs each delivery's
  sender (``obs="trace"``).

**Saturated rounds.**  Once a round ends with every node holding all
``k`` tokens, on a run with no link model and ``latency == 1``, no later
round can change the state: nothing crashes a node or flips a bit, and
every kernel's absorb only ORs into ``TA`` (the saturation contract of
:meth:`~repro.sim.fastpath._Kernel.absorb`).  Those rounds still send and
bill, but skip delivery, the absorb, the popcount (unless monitors need
``per_node``) and the observer's state diff.  Algorithm 1 alone still
absorbs ``from_head``, which grows the ``TR`` that steers its member
unicasts.

**The saturated tail in closed form.**  A saturated round's sends follow
from the kernel's phase state and the round's hierarchy alone.  So, on a
run without monitors, once the kernel accepts a saturated round
(:meth:`~repro.sim.fastpath._Kernel.tail_from`: at once for most kinds,
at the next phase boundary for Algorithm 1 and KLO, once nothing is
fresh for ``flood_new``), the loop stops calling ``send``: the kernel's
:meth:`~repro.sim.fastpath._Kernel.tail` describes every remaining round
up to the stop round, one run of rounds per distinct hierarchy, and
:meth:`~repro.obs.RunObserver.close_saturated` bills and closes them in
one call.  A kernel that finds no closed form (Algorithm 1 when, say,
``T < k`` or a phase holds two hierarchies; see its ``tail``) leaves the
run per round.  Monitored runs stay per round: their monitors see every
round.

**Bit-identity.**  OR-accumulation is order-independent, so both
deliveries produce the same :class:`RunResult` as the reference engine:
outputs, metrics, timelines, recordings, causal traces and monitor
violations (asserted registry-wide in ``tests/test_columnar.py``).

**Bounded gathers.**  :func:`segment_or` reduces in contiguous row
blocks whose gathered ``(edges, W)`` slice stays under a fixed element
budget, so one round's transient memory does not grow with ``n · deg · W``.
Below the budget (every n·k this repo benchmarks) it is a single
``reduceat``; the blocking is invisible in results (OR is associative).

Every :class:`~repro.sim.topology.GraphTrace` is array-native: the loop
reads its ``snapshot_arrays(r)`` and never materialises per-node
frozensets — unless runtime monitors are attached, whose round views
carry a :class:`~repro.sim.topology.Snapshot`.  Other networks (adaptive
adversaries, ad-hoc test doubles) are read through ``snapshot(r)``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from ..obs import Profiler
from ..obs.observer import (
    RunObserver,
    pack_rows,
    rows_frozensets,
    rows_tokens,
    words_for,
)
from .engine import RunResult, SynchronousEngine
from .fastpath import (
    _KERNELS,
    _ROLE_MEMBER,
    _U1,
    Span,
    _account,
    _filter_batch_alive,
    _SendBatch,
)
from .linkmodel import LinkModel
from .metrics import Metrics
from .topology import SnapshotArrays

__all__ = [
    "pack_rows",
    "pack_single_tokens",
    "run_columnar",
    "segment_or",
    "select_delivery",
    "unpack_rows",
]

Flat = Tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# packed bit-matrix helpers
# ---------------------------------------------------------------------------

# pack_rows and words_for live with the obs feed that consumes the packed
# state (repro.obs.observer); they stay importable from here.

def unpack_rows(bits: np.ndarray) -> List[Tuple[int, ...]]:
    """Decode an ``(n, W)`` uint64 bit-matrix to per-row sorted token tuples.

    Inverse of :func:`pack_rows`.
    """
    rows = np.ascontiguousarray(np.asarray(bits, dtype=np.uint64))
    return [tuple(toks) for toks in rows_tokens(rows)]


def pack_single_tokens(tokens: np.ndarray, k: int) -> np.ndarray:
    """Vectorised pack of one token per node (``-1`` = starts empty).

    The array-native counterpart of
    ``initial_assignment(k, n, mode="spread")`` for million-node instances
    where building ``n`` frozensets would dominate the run.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1:
        raise ValueError(f"tokens must be 1-D, got shape {tokens.shape}")
    if tokens.size and int(tokens.max()) >= k:
        raise ValueError(f"token {int(tokens.max())} outside 0..{k - 1}")
    out = np.zeros((tokens.shape[0], words_for(k)), dtype=np.uint64)
    idx = np.nonzero(tokens >= 0)[0]
    t = tokens[idx]
    out[idx, t >> 6] = _U1 << (t & 63).astype(np.uint64)
    return out


# ---------------------------------------------------------------------------
# delivery selection
# ---------------------------------------------------------------------------

def select_delivery(latency: int, obs: str) -> str:
    """The delivery a run uses: ``"scatter"`` or ``"csr"``.

    Flat scatter is the sole correct path when a frame lands rounds after
    its audience was fixed (``latency > 1``) and when causal attribution
    needs every delivery's sender (``obs="trace"``); CSR segment-OR
    delivery covers everything else, link models and monitors included.
    """
    return "scatter" if latency > 1 or obs == "trace" else "csr"


# ---------------------------------------------------------------------------
# CSR segment-OR delivery
# ---------------------------------------------------------------------------

#: Most ``uint64`` words one :func:`segment_or` gather may hold (32 MiB):
#: larger products are reduced in contiguous row blocks under it.
_GATHER_BUDGET = 1 << 22


def segment_or(
    indptr: np.ndarray,
    indices: np.ndarray,
    payload: np.ndarray,
    edge_keep: Optional[np.ndarray] = None,
) -> np.ndarray:
    """OR-reduce ``payload`` rows over CSR adjacency segments.

    ``out[i] = OR(payload[indices[indptr[i] : indptr[i + 1]]])`` — the
    boolean spmm ``A · P``.  ``reduceat`` mis-handles empty segments (it
    returns the element *at* the index instead of the OR-identity) so
    degree-0 rows are masked out and stay all-zero.

    ``edge_keep`` (one bool per CSR edge, or ``None`` for all-kept)
    zeroes the gathered rows of suppressed edges before the reduce —
    zero rows are OR-neutral, so a link-masked edge behaves exactly like
    no delivery.

    Rows are reduced in contiguous blocks whose gathered slice holds at
    most :data:`_GATHER_BUDGET` words; a row whose degree alone exceeds
    it is a block of its own.  Below the budget this is one ``reduceat``.
    """
    rows = indptr.shape[0] - 1
    out = np.zeros((rows, payload.shape[1]), dtype=np.uint64)
    if indices.size == 0:
        return out
    per_block = max(1, _GATHER_BUDGET // max(1, payload.shape[1]))
    lo = 0
    while lo < rows:
        e0 = indptr[lo]
        hi = rows
        if indptr[hi] - e0 > per_block:
            hi = int(np.searchsorted(indptr, e0 + per_block, side="right")) - 1
            hi = max(hi, lo + 1)
        e1 = indptr[hi]
        if e1 > e0:
            gathered = payload[indices[e0:e1]]
            if edge_keep is not None:
                keep = edge_keep[e0:e1]
                if not keep.all():
                    gathered[~keep] = 0
            starts = indptr[lo:hi]
            nonempty = indptr[lo + 1:hi + 1] > starts
            out[lo:hi][nonempty] = np.bitwise_or.reduceat(
                gathered, np.asarray(starts[nonempty] - e0, dtype=np.intp),
                axis=0,
            )
            del gathered  # free this block's slice before the next gather
        lo = hi
    return out


def _link_transform(
    r: int,
    n: int,
    batch: _SendBatch,
    arrs: SnapshotArrays,
    link: LinkModel,
    alive: np.ndarray,
    metrics: Metrics,
) -> Tuple[Optional[np.ndarray], _SendBatch]:
    """Per-edge link masks over the CSR columns, losses billed.

    Shared by both deliveries.  Returns the broadcast ``edge_keep`` mask
    (``None`` when every edge delivers) and the batch with lost or
    dead-receiver unicasts masked out of ``uc_ok``.  Candidates are
    broadcast edges with a live receiver: the reference bills losses
    only on those, and dead receivers are silent (dropped at landing, or
    re-zeroed after the absorb).  The counter-based link RNG keys every
    decision by (round, edge), so masking the vectorised candidate set is
    bit-identical to the reference engine's per-edge ``delivers`` calls.
    """
    edge_keep: Optional[np.ndarray] = None
    is_bc = np.zeros(n, dtype=bool)
    is_bc[batch.bc_senders] = True
    snd_e = arrs.indices
    recv_e = np.repeat(np.arange(n, dtype=np.int64), arrs.degrees)
    cidx = np.flatnonzero(is_bc[snd_e] & alive[recv_e])
    if cidx.size:
        m = link.deliver_mask(r, snd_e[cidx], recv_e[cidx])
        if m is not None and not m.all():
            metrics.record_loss(int(m.size - int(m.sum())))
            edge_keep = np.ones(snd_e.shape[0], dtype=bool)
            edge_keep[cidx[~m]] = False
    if batch.uc_senders.size:
        ok = batch.uc_ok
        delivered = ok & alive[batch.uc_dests]
        uidx = np.flatnonzero(delivered)
        if uidx.size:
            mu = link.deliver_mask(r, batch.uc_senders[uidx], batch.uc_dests[uidx])
            if mu is not None and not mu.all():
                metrics.record_loss(int(mu.size - int(mu.sum())))
                delivered[uidx[~mu]] = False
        batch = batch._replace(uc_ok=delivered)
    return edge_keep, batch


def _csr_from_head(
    r: int, arrs: SnapshotArrays, bc_full: np.ndarray, link: Optional[LinkModel]
) -> np.ndarray:
    """Each member's own-head broadcast, as a gather ``bc_full[head_of]``.

    Only members adjacent to their head listen; under a link model the
    head→member frame re-evaluates the same counter-based decision the
    CSR edge mask drew for that (round, edge), so a lost frame is
    suppressed consistently and not billed twice.  Heads that stayed
    silent contribute all-zero rows — OR-neutral, like no delivery.
    """
    out = np.zeros_like(bc_full)
    if arrs.head_adjacent is None:
        return out
    ids = np.flatnonzero((arrs.roles == _ROLE_MEMBER) & arrs.head_adjacent)
    heads = arrs.head_of[ids]
    if link is not None and ids.size:
        m = link.deliver_mask(r, heads, ids)
        if m is not None:
            ids, heads = ids[m], heads[m]
    out[ids] = bc_full[heads]
    return out


def _or_from_head(
    arrs: SnapshotArrays,
    rec: np.ndarray,
    snd: np.ndarray,
    payload: np.ndarray,
    out: np.ndarray,
) -> None:
    """OR into ``out`` the flat deliveries members got from their own head."""
    if arrs.head_of is None:
        return
    sel = (arrs.roles[rec] == _ROLE_MEMBER) & (arrs.head_of[rec] == snd)
    if sel.any():
        np.bitwise_or.at(out, rec[sel], payload[sel])


# ---------------------------------------------------------------------------
# flat scatter delivery
# ---------------------------------------------------------------------------

def _deliveries(
    r: int, batch: _SendBatch, arrs: SnapshotArrays, link: Optional[LinkModel]
) -> Optional[Flat]:
    """Expand a send batch into flat (receiver, sender, payload) arrays:
    one per delivered broadcast edge plus one per delivered unicast.

    Link decisions are a pure hash of (round, edge), so re-drawing them
    here, in sender-major edge order, yields the same fates
    :func:`_link_transform` billed.
    """
    senders = batch.bc_senders
    lens = arrs.degrees[senders]
    row = np.repeat(np.arange(senders.size), lens)
    pos = np.arange(row.size, dtype=np.int64) + np.repeat(
        arrs.indptr[senders] - (np.cumsum(lens) - lens), lens
    )
    if link is not None and pos.size:
        kept = link.deliver_mask(r, senders[row], arrs.indices[pos])
        if kept is not None:
            pos, row = pos[kept], row[kept]
    ok = batch.uc_ok
    rec = np.concatenate((arrs.indices[pos], batch.uc_dests[ok]))
    if not rec.size:
        return None
    return (
        rec,
        np.concatenate((senders[row], batch.uc_senders[ok])),
        np.concatenate((batch.bc_payload[row], batch.uc_payload[ok])),
    )


def _landing(
    pending: Optional[List[Flat]], alive: Optional[np.ndarray]
) -> Optional[Flat]:
    """Merge the deliveries due this round, dropping crashed receivers."""
    if not pending:
        return None
    rec, snd, payload = (np.concatenate(part) for part in zip(*pending))
    if alive is not None:
        # receivers may have crashed between transmission and landing
        live = alive[rec]
        if not live.all():
            rec, snd, payload = rec[live], snd[live], payload[live]
    return (rec, snd, payload) if rec.size else None


# ---------------------------------------------------------------------------
# the round loop
# ---------------------------------------------------------------------------

def _topology(network, r: int, n: int, need_snapshot: bool):
    """The round's CSR arrays, preferring array-native networks, plus a
    materialised :class:`Snapshot` only when ``need_snapshot``."""
    snap = network.snapshot(r) if need_snapshot else None
    getter = getattr(network, "snapshot_arrays", None)
    if getter is not None:
        arrs = getter(r)
    else:
        arrs = (snap if snap is not None else network.snapshot(r)).arrays()
    if arrs.degrees.shape[0] != n:
        raise ValueError(
            f"snapshot for round {r} has {arrs.degrees.shape[0]} nodes, "
            f"expected {n}"
        )
    return arrs, snap


def _spans(network, start: int, stop: int, n: int) -> List[Span]:
    """Rounds ``start .. stop-1`` as runs that share one hierarchy: the
    same ``roles``, ``head_of`` and ``head_adjacent`` arrays."""
    spans: List[Span] = []
    for r in range(start, stop):
        arrs, _ = _topology(network, r, n, False)
        if spans:
            first, _, held = spans[-1]
            if (arrs.roles is held.roles and arrs.head_of is held.head_of
                    and arrs.head_adjacent is held.head_adjacent):
                spans[-1] = (first, r + 1, held)
                continue
        spans.append((r, r + 1, arrs))
    return spans


def _lap_timer(prof: Optional[Profiler], start: float) -> Callable[[str], None]:
    """``lap(section)`` books the time since the previous lap (the first
    time since ``start``) to ``section``; a no-op without a profiler."""
    if prof is None:
        return lambda section: None
    last = [start]

    def lap(section: str) -> None:
        now = time.perf_counter()
        prof.add(section, now - last[0])
        last[0] = now

    return lap


def run_columnar(
    engine: SynchronousEngine,
    network,
    kind: str,
    params: Mapping[str, object],
    k: int,
    TA: np.ndarray,
    max_rounds: int,
    *,
    stop_when_complete: bool = False,
    stop_when_finished: bool = True,
    materialize_outputs: bool = True,
    monitors=None,
) -> RunResult:
    """Execute a packed-state run on the vectorised tier.

    ``TA`` is the ``(n, W)`` initial bit-matrix (see :func:`pack_rows` /
    :func:`pack_single_tokens`) and ``kind`` / ``params`` name a kernel
    (a ``factory.fastpath`` tag).  :func:`repro.sim.fastpath.try_run`
    calls this with the engine's ``initial`` mapping packed.  Outputs are
    decoded by :func:`~repro.obs.observer.rows_frozensets`, once per
    distinct final token set: nodes that end with equal sets share one
    ``frozenset``.  ``materialize_outputs=False`` skips that decode and
    the ``n``-entry dict (``RunResult.outputs`` is then empty and
    ``complete`` comes from the coverage counter); the saving is the
    dict and the distinct sets, not ``n`` frozensets.

    At ``obs="profile"`` the set-up before round 0 and the decode after
    the last round are booked to the ``bookkeeping`` stage.

    The delivery follows :func:`select_delivery`; saturated rounds skip
    it, and the saturated tail is billed in closed form, booked to the
    ``send`` stage at ``obs="profile"`` (see the module docstring).
    ``monitors`` receive one :class:`~repro.obs.RoundView` per round.
    """
    started = time.perf_counter()
    n, W = TA.shape
    if kind not in _KERNELS:
        raise ValueError(f"unsupported kernel kind {kind!r}")
    kernel = _KERNELS[kind](n, k, W, TA, **params)
    scatter = select_delivery(engine.latency, engine.obs) == "scatter"

    metrics = Metrics()
    observer = RunObserver(
        engine.obs, n, k, TA, monitors=monitors, stream=engine.stream
    )
    link = engine.link_for(engine.engine_mode)
    alive: Optional[np.ndarray] = None
    if link is not None:
        alive = np.ones(n, dtype=bool)
    latency = engine.latency
    in_flight: Dict[int, List[Flat]] = {}
    # once a round ends with every token everywhere, a run with no link
    # model (nothing crashes a node or flips a bit) and nothing in flight
    # can no longer change state: every absorb only ORs into TA
    saturable = link is None and latency == 1
    saturated = False
    # whether the kernel may still be asked for the saturated tail
    tail_open = saturable and k > 0 and not observer.wants_views
    # set-up before the first round and the decode after the last are
    # bookkeeping, like the per-round counters
    lap = _lap_timer(observer.profiler, started)
    lap("bookkeeping")

    for r in range(max_rounds):
        arrs, snap = _topology(network, r, n, observer.wants_views)
        lap("topology")
        observer.open_round(arrs)

        # --- crash stage (before sends: crashed nodes never act) ---------
        newly_crashed: Tuple[int, ...] = ()
        crash_tokens = 0
        if link is not None:
            crashed = link.crashes(r, alive)
            if len(crashed):
                newly_crashed = tuple(int(x) for x in crashed)
                alive[crashed] = False
                crash_tokens = int(np.bitwise_count(kernel.TA[crashed]).sum())
                kernel.TA[crashed] = 0
                metrics.record_crashes(len(newly_crashed))

        # --- send + link transform ---------------------------------------
        batch = kernel.send(r, arrs)
        if batch is not None and alive is not None:
            batch = _filter_batch_alive(batch, alive)
        if batch is not None and not batch.messages:
            batch = None
        if batch is not None:
            _account(observer.table, batch)
            if observer.wants_log:
                observer.log_sends(batch.log())
        edge_keep: Optional[np.ndarray] = None
        if batch is not None and link is not None:
            edge_keep, batch = _link_transform(
                r, n, batch, arrs, link, alive, metrics
            )
        if scatter and batch is not None and not saturated:
            flat = _deliveries(r, batch, arrs, link)
            if flat is not None:
                in_flight.setdefault(r + latency - 1, []).append(flat)
        lap("send")

        # --- deliver: what each node heard, per the delivery --------------
        heard = from_head = flat = None
        hears_heads = kernel.hears_heads and arrs.roles is not None
        if scatter and not saturated:
            flat = _landing(in_flight.pop(r, None), alive)
            if flat is not None:
                heard = np.zeros_like(kernel.TA)
                np.bitwise_or.at(heard, flat[0], flat[2])
                if hears_heads:
                    from_head = np.zeros_like(heard)
                    _or_from_head(arrs, *flat, from_head)
        elif batch is not None and (hears_heads or not saturated):
            # CSR delivery; a saturated round builds only from_head
            bc_full = np.zeros_like(kernel.TA)
            bc_full[batch.bc_senders] = batch.bc_payload
            ok = np.flatnonzero(batch.uc_ok)
            unicasts = (
                batch.uc_dests[ok], batch.uc_senders[ok], batch.uc_payload[ok]
            )
            if hears_heads:
                from_head = _csr_from_head(r, arrs, bc_full, link)
                _or_from_head(arrs, *unicasts, from_head)
            if saturated:
                # TA is all ones, so absorb can only grow Algorithm 1's TR
                # from what members heard from their own head (see
                # _Kernel.absorb)
                heard = from_head
            else:
                heard = segment_or(arrs.indptr, arrs.indices, bc_full, edge_keep)
                np.bitwise_or.at(heard, unicasts[0], unicasts[2])
        lap("deliver")

        # --- receive -----------------------------------------------------
        if heard is not None:
            kernel.absorb(arrs, heard, from_head)
            if alive is not None and not alive.all():
                # dead receivers may have absorbed via the multi-input
                # gathers; OR-neutral re-zero restores crash-stop
                kernel.TA[~alive] = 0
        lap("receive")

        # --- bookkeeping ---------------------------------------------------
        if link is not None:
            # pinpoint perturbations (PinpointFault): XOR always
            # changes state, so divergence at exactly this round/node
            for fv, ft in link.faults(r):
                if alive is None or alive[fv]:
                    kernel.TA[fv, ft >> 6] ^= _U1 << np.uint64(ft & 63)
        if saturated and not observer.wants_views:
            coverage, nodes_complete, per_node = n * k, n, None
        else:
            counts = np.bitwise_count(kernel.TA).sum(axis=1, dtype=np.int64)
            coverage = int(counts.sum())
            nodes_complete = int((counts == k).sum())
            per_node = counts.tolist() if observer.wants_views else None
        metrics.end_round(coverage)
        observer.close_round(
            r, coverage, nodes_complete, metrics,
            state=kernel.TA,
            deliveries=flat,
            per_node=per_node,
            faults=None if link is None else (newly_crashed, crash_tokens),
            snap=snap,
            unchanged=saturated,
        )
        lap("bookkeeping")
        saturated = saturable and coverage == n * k
        alive_n = n if alive is None else int(alive.sum())
        if coverage == alive_n * k and (alive is None or alive_n > 0):
            metrics.mark_complete()
            if stop_when_complete:
                break
        # the reference asks every live node; once all have crashed the
        # answer is vacuously yes
        if stop_when_finished and not in_flight and (
            alive_n == 0 or kernel.finished(r)
        ):
            break
        if saturated and tail_open and kernel.tail_from(r + 1):
            stop = max_rounds
            if stop_when_finished and kernel.budget is not None:
                stop = min(stop, kernel.budget)
            spans = _spans(network, r + 1, stop, n)
            groups = kernel.tail(spans) if spans else []
            if groups is not None:
                observer.close_saturated(spans, groups, n * k, n, metrics)
                lap("send")
                break
            tail_open = False

    held = np.bitwise_count(kernel.TA).sum(axis=1, dtype=np.int64)
    survivors = held if alive is None else held[alive]
    # completion counts survivors only, and needs at least one of them
    complete = bool((survivors == k).all()) and (
        alive is None or survivors.size > 0
    )
    outputs: Dict[int, FrozenSet[int]] = {}
    if materialize_outputs:
        outputs = dict(enumerate(rows_frozensets(kernel.TA)))
    lap("bookkeeping")
    timeline, causal, recording, violations = observer.finish(metrics, complete)
    return RunResult(
        n=n,
        k=k,
        metrics=metrics,
        outputs=outputs,
        complete=complete,
        timeline=timeline,
        causal_trace=causal,
        recording=recording,
        violations=violations,
        algorithms=None,
    )

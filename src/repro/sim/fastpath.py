"""The vectorised tier: bitset kernels and the one round loop that runs them.

The reference engine (:mod:`repro.sim.engine`) dispatches per-node Python
objects exchanging ``frozenset`` token sets — ideal for clarity and for
arbitrary user algorithms, but the hot loop of every benchmark sweep.
This module re-implements the *fixed* algorithm family of the paper
(Algorithm 1, its Remark-1 stable-heads variant, Algorithm 2, both KLO
baselines, and the two flooding baselines) as vectorised kernels:

* a node's token set is a row of a packed ``(n, W)`` ``uint64``
  bit-matrix (one bit per token), so set union is ``|``, difference is
  ``& ~``, and cardinality is a popcount;
* per-round topology comes from CSR arrays
  (:class:`~repro.sim.topology.SnapshotArrays`);
* send/receive for all ``n`` nodes are a handful of numpy array operations
  instead of ``2n`` Python method calls.

Each kernel has one ``send`` and one receive rule, :meth:`_Kernel.absorb`,
which sees a round's deliveries as dense ``(n, W)`` rows however the
round loop delivered them.  :func:`run_columnar` is that loop, the one
``engine="fast"`` executes: topology → crash stage → send → link
transform → deliver → absorb → bookkeeping, with the same accounting and
stop rules as the reference engine, and the same
:class:`~repro.obs.RunObserver` feed into every obs consumer.  Each
round's batch is billed into its row of the run's
:class:`~repro.obs.observer.SendTable`, as the reference engine bills
its sends.

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
:meth:`_Kernel.absorb`).  Those rounds still send and bill, but skip
delivery, the absorb, the popcount (unless monitors need ``per_node``)
and the observer's state diff.  Algorithm 1 alone still absorbs
``from_head``, which grows the ``TR`` that steers its member unicasts.

**The saturated tail in closed form.**  A saturated round's sends follow
from the kernel's phase state and the round's hierarchy alone.  So, on a
run without monitors, once the kernel accepts a saturated round
(:meth:`_Kernel.tail_from`: at once for most kinds, at the next phase
boundary for Algorithm 1 and KLO, once nothing is fresh for
``flood_new``), the loop stops calling ``send``: the kernel's
:meth:`_Kernel.tail` describes every remaining round up to the stop
round, one run of rounds per distinct hierarchy, and
:meth:`~repro.obs.RunObserver.close_saturated` bills and closes them in
one call.  A kernel that finds no closed form (Algorithm 1 when, say,
``T < k`` or a phase holds two hierarchies; see its ``tail``) leaves the
run per round.  Monitored runs stay per round: their monitors see every
round.

**Bit-identical results.**  For supported algorithms the vectorised tier
reproduces the reference engine exactly under either delivery: outputs,
metrics, timelines, causal traces, recordings, monitor violations and
drop/loss accounting.  OR-accumulation is order-independent, and every
:class:`~repro.sim.linkmodel.LinkModel` decision is a pure counter-based
hash of ``(seed, round, edge)``, also under loss, churn, pinpoint faults
and ``latency > 1``.  The equivalence suites in
``tests/test_fastpath.py``, ``tests/test_columnar.py``,
``tests/test_obs.py``, ``tests/test_causal_trace.py`` and
``tests/test_linkmodel.py`` assert this.

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

**Dispatch.**  Factories built by the ``make_*_factory`` helpers carry a
``factory.fastpath = (kind, params)`` tag; ``_KERNELS`` lists the kinds.
:func:`try_run` runs the matching kernel, or returns ``None`` — letting
the engine fall back to the reference path — when the factory is
untagged (custom algorithms) or the network is adaptive (the adversary
hook needs per-node Python state).
``RunResult.algorithms`` is ``None`` on the vectorised tier: there are no
per-node objects to hand back.
"""

from __future__ import annotations

import time
from itertools import repeat
from typing import (
    Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ..obs.observer import (
    SILENT,
    WHOLE_SET,
    RunObserver,
    SendGroup,
    SendTable,
    pack_rows,
    rows_frozensets,
    words_for,
)
from ..obs.recorder import rows_tokens
from ..obs.timeline import Profiler
from .engine import RunResult, SynchronousEngine, validate_run_args
from .linkmodel import LinkModel
from .metrics import Metrics
from .topology import SnapshotArrays

__all__ = [
    "pack_single_tokens",
    "run_columnar",
    "segment_or",
    "select_delivery",
    "try_run",
    "unpack_rows",
]

_U1 = np.uint64(1)

_ROLE_HEAD, _ROLE_GATEWAY, _ROLE_MEMBER = 0, 1, 2

#: The roles of a :class:`SendGroup` of every node that is not a member.
_NON_MEMBERS = (_ROLE_HEAD, _ROLE_GATEWAY)
#: :attr:`SendGroup.tokens` of a group that sends its whole set once.
_ONCE = np.array([WHOLE_SET])


# ---------------------------------------------------------------------------
# bit tricks on (m, W) uint64 rows
# ---------------------------------------------------------------------------

def _popcounts(rows: np.ndarray) -> np.ndarray:
    """Per-row popcount of (m, W) uint64 rows."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)

def _lowest_bit_rows(rows: np.ndarray) -> np.ndarray:
    """One-hot rows isolating each row's lowest set bit (rows must be != 0)."""
    out = np.zeros_like(rows)
    wsel = (rows != 0).argmax(axis=1)
    ar = np.arange(rows.shape[0])
    w = rows[ar, wsel]
    out[ar, wsel] = w & ~(w - _U1)
    return out

def _highest_bit_rows(rows: np.ndarray) -> np.ndarray:
    """One-hot rows isolating each row's highest set bit (rows must be != 0)."""
    out = np.zeros_like(rows)
    wsel = rows.shape[1] - 1 - (rows[:, ::-1] != 0).argmax(axis=1)
    ar = np.arange(rows.shape[0])
    s = rows[ar, wsel].copy()
    s |= s >> _U1
    s |= s >> np.uint64(2)
    s |= s >> np.uint64(4)
    s |= s >> np.uint64(8)
    s |= s >> np.uint64(16)
    s |= s >> np.uint64(32)
    out[ar, wsel] = s ^ (s >> _U1)
    return out

# ---------------------------------------------------------------------------
# per-round send batches
# ---------------------------------------------------------------------------

class _SendBatch(NamedTuple):
    """All transmissions of one round, as arrays.

    Senders appear at most once per side (every supported algorithm sends
    at most one message per node per round) and in ascending node order —
    the reference engine's iteration order.
    """

    bc_senders: np.ndarray
    bc_payload: np.ndarray
    bc_costs: np.ndarray
    uc_senders: np.ndarray
    uc_dests: np.ndarray
    uc_ok: np.ndarray
    uc_payload: np.ndarray
    uc_costs: np.ndarray

    @property
    def messages(self) -> int:
        return len(self.bc_senders) + len(self.uc_senders)

    def log(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The batch as the observer's message log: ``(senders, dests,
        payload, costs)``, broadcasts first with ``dest == -1``."""
        return (
            np.concatenate((self.bc_senders, self.uc_senders)),
            np.concatenate((np.full(len(self.bc_senders), -1), self.uc_dests)),
            np.concatenate((self.bc_payload, self.uc_payload)),
            np.concatenate((self.bc_costs, self.uc_costs)),
        )


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)

#: Saturated rounds ``start .. stop-1`` sharing one hierarchy: ``(start,
#: stop, arrays of round start)``.
Span = Tuple[int, int, SnapshotArrays]


def _whole_sets(start: int, stop: int, until: Optional[int]) -> np.ndarray:
    """:attr:`SendGroup.tokens` of rounds ``start .. stop-1``: the whole
    set in every round before ``until`` (``None``: every round)."""
    tokens = np.full(stop - start, WHOLE_SET)
    if until is not None:
        tokens[max(0, until - start):] = SILENT
    return tokens


def _phase_tokens(start: int, stop: int, T: int, k: int, until: int) -> np.ndarray:
    """:attr:`SendGroup.tokens` of rounds ``start .. stop-1`` for nodes
    that send their lowest unsent token and forget what they sent at
    each phase boundary: token ``j`` at phase offset ``j < k``, before
    round ``until``."""
    rounds = np.arange(start, stop)
    offset = rounds % T
    return np.where((offset < k) & (rounds < until), offset, SILENT)


def _broadcast_batch(senders: np.ndarray, payload: np.ndarray, costs: np.ndarray) -> _SendBatch:
    W = payload.shape[1] if payload.ndim == 2 else 1
    empty_rows = np.empty((0, W), dtype=np.uint64)
    return _SendBatch(
        senders, payload, costs,
        _EMPTY_IDS, _EMPTY_IDS, _EMPTY_BOOL, empty_rows, _EMPTY_IDS,
    )


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class _Kernel:
    """Vectorised state of one algorithm family across all nodes.

    Subclasses implement :meth:`send` (returning a :class:`_SendBatch` or
    ``None`` for a silent round) and :meth:`tail`, and set
    :attr:`budget`; the default :meth:`absorb` ORs everything a node
    heard into ``TA`` — the reference rule "absorb everything you hear".
    """

    #: Whether :meth:`absorb` needs ``from_head`` (see there).
    hears_heads = False

    #: Rounds until every node has terminated (``None``: never); see
    #: :meth:`finished`.
    budget: Optional[int] = None

    def __init__(self, n: int, k: int, W: int, TA: np.ndarray) -> None:
        self.n = n
        self.k = k
        self.W = W
        self.TA = TA

    # -- engine interface --------------------------------------------------

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        raise NotImplementedError

    def absorb(
        self,
        arrs: SnapshotArrays,
        heard: np.ndarray,
        from_head: Optional[np.ndarray],
    ) -> None:
        """Absorb one round's deliveries, whichever delivery made them.

        ``heard`` is the ``(n, W)`` OR of every payload delivered to each
        node this round (all-zero rows for nodes that heard nothing —
        OR-neutral).  For kernels with :attr:`hears_heads` on clustered
        rounds, ``from_head`` is the OR of the payloads each *member*
        received from its own head (zero rows elsewhere); else ``None``.

        **Saturation contract.**  When every row of ``TA`` holds all ``k``
        tokens, ``absorb`` must leave ``TA`` and every other kernel array
        unchanged, whatever ``heard`` and ``from_head`` hold — the one
        exception is Algorithm 1's ``TR``, which gains ``from_head``.
        :func:`run_columnar` relies on it to skip the delivery of
        saturated rounds; ``tests/test_columnar.py`` checks every kind in
        ``_KERNELS``.  It is also why a saturated round's
        sends follow from the kernel's phase state and the round's
        hierarchy alone, so that :meth:`tail` can describe every later
        round without running it (Algorithm 1's ``TR`` growth included:
        its closed form says what each member's own head fills in).
        """
        self.TA |= heard

    def finished(self, r: int) -> bool:
        """Whether every node has locally terminated after round ``r``."""
        return self.budget is not None and r + 1 >= self.budget

    # -- the saturated tail ------------------------------------------------

    def tail_from(self, r: int) -> bool:
        """Whether :meth:`tail` may describe saturated rounds from ``r``
        on (their sends no longer depend on per-node state)."""
        return True

    def tail(self, spans: Sequence[Span]) -> Optional[List[SendGroup]]:
        """The sends of saturated rounds, from a round :meth:`tail_from`
        accepts, without running them.

        Every row of ``TA`` holds all ``k`` tokens.  ``spans`` cover the
        rounds to describe, in order, each a run of rounds that share
        ``roles``, ``head_of`` and ``head_adjacent`` arrays.  Returns
        :class:`SendGroup`\\ s that send exactly what :meth:`send` would
        in each of those rounds, or ``None`` when these rounds have no
        closed form (the run then stays per round).  Leaves the kernel
        as it was.
        """
        return None

    # -- shared helpers ----------------------------------------------------

    def _head_arr(self, arrs: SnapshotArrays) -> np.ndarray:
        if arrs.head_of is not None:
            return arrs.head_of
        cached = getattr(self, "_neg1", None)
        if cached is None:
            cached = np.full(self.n, -1, dtype=np.int64)
            self._neg1 = cached
        return cached

    def _member_mask(self, arrs: SnapshotArrays) -> Optional[np.ndarray]:
        return None if arrs.roles is None else arrs.roles == _ROLE_MEMBER


class _Algorithm1Kernel(_Kernel):
    """Algorithm 1 (Fig. 4) and its Remark-1 stable-heads variant."""

    hears_heads = True

    def __init__(self, n, k, W, TA, T: int, M: int, strict: bool, stable: bool = False):
        super().__init__(n, k, W, TA)
        if T < 1 or M < 1:
            raise ValueError(f"T and M must be >= 1, got T={T}, M={M}")
        self.T = T
        self.M = M
        self.budget = M * T
        self.strict = strict
        self.stable = stable
        self.TS = np.zeros_like(TA)
        self.TR = np.zeros_like(TA)
        # previous phase's head per node; -1 encodes "None", matching the
        # reference's initial `_phase_head = None`
        self.phase_head = np.full(n, -1, dtype=np.int64)

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        if r // self.T >= self.M:
            return None
        member = self._member_mask(arrs)
        head_arr = self._head_arr(arrs)

        if r % self.T == 0:
            # phase boundary: members forget TS/TR on head change (plain
            # Algorithm 1 only); heads/gateways clear their per-phase TS
            if member is None:
                self.TS[:] = 0
            else:
                if not self.stable:
                    reset = member & (head_arr != self.phase_head)
                    self.TS[reset] = 0
                    self.TR[reset] = 0
                self.TS[~member] = 0
            self.phase_head[:] = head_arr

        uc_senders = _EMPTY_IDS
        uc_dests = _EMPTY_IDS
        uc_ok = _EMPTY_BOOL
        uc_payload = np.empty((0, self.W), dtype=np.uint64)
        if member is not None and not (self.stable and r >= self.T):
            unknown = self.TA & ~(self.TS | self.TR)
            can = member & (head_arr >= 0) & unknown.any(axis=1)
            uc_senders = np.nonzero(can)[0]
            if uc_senders.size:
                uc_payload = _highest_bit_rows(unknown[uc_senders])
                self.TS[uc_senders] |= uc_payload
                uc_dests = head_arr[uc_senders]
                uc_ok = arrs.head_adjacent[uc_senders]

        unsent = self.TA & ~self.TS
        canb = unsent.any(axis=1)
        if member is not None:
            canb &= ~member
        bc_senders = np.nonzero(canb)[0]
        if bc_senders.size:
            bc_payload = _lowest_bit_rows(unsent[bc_senders])
            self.TS[bc_senders] |= bc_payload
        else:
            bc_payload = np.empty((0, self.W), dtype=np.uint64)

        return _SendBatch(
            bc_senders, bc_payload,
            np.ones(bc_senders.size, dtype=np.int64),
            uc_senders, uc_dests, uc_ok, uc_payload,
            np.ones(uc_senders.size, dtype=np.int64),
        )

    def absorb(self, arrs, heard, from_head):
        """The reference rule, per member: tokens from *your own head*
        land in ``TA`` and ``TR``; overheard traffic lands in ``TA``
        unless ``strict``.  Non-members absorb everything."""
        member = self._member_mask(arrs)
        if member is None:
            self.TA |= heard
            return
        if self.strict:
            # masked in-place OR (ufunc ``where=``) — no gather/scatter copies
            np.bitwise_or(self.TA, heard, out=self.TA, where=~member[:, None])
        else:
            self.TA |= heard
        self.TA |= from_head
        self.TR |= from_head

    def tail_from(self, r: int) -> bool:
        return r % self.T == 0 or r >= self.budget

    def tail(self, spans):
        """From a phase boundary, when each phase holds one hierarchy and
        ``T >= k``: non-members broadcast token ``j`` at phase offset
        ``j < k``.  A member whose head changed at the boundary unicasts
        token ``k-1-j`` at offset ``j``, for ``j < ceil(k/2)`` if its
        head is adjacent (whose broadcasts fill ``TR`` from below), else
        for ``j < k`` (all dropped); either way ``TS | TR`` is full by
        the phase's end, so a member that keeps its head stays silent.
        That last fact must already hold at the first boundary.  The
        stable variant's members are silent after phase 0."""
        if not (self.stable or self.T >= self.k):
            return None
        k, T = self.k, self.T
        first, end = spans[0][0], spans[-1][1]
        out = [SendGroup(first, _phase_tokens(first, end, T, k, self.budget), _NON_MEMBERS)]
        head = self.phase_head
        for i, (start, stop, arrs) in enumerate(spans):
            if start >= self.budget:
                break
            if start % T:
                return None  # a hierarchy change inside a phase
            member = self._member_mask(arrs)
            new_head = self._head_arr(arrs)
            if member is None or self.stable:
                head = new_head
                continue
            affiliated = member & (new_head >= 0)
            if i == 0:
                kept = affiliated & (new_head == head)
                if (self.TA[kept] & ~(self.TS[kept] | self.TR[kept])).any():
                    return None
            fresh = np.flatnonzero(affiliated & (new_head != head))
            if (arrs.roles[new_head[fresh]] == _ROLE_MEMBER).any():
                return None  # a member headed by a member
            adjacent = arrs.head_adjacent[fresh]
            for ok, sends in ((True, (k + 1) // 2), (False, k)):
                ids = fresh[adjacent == ok]
                if ids.size:
                    rounds = min(sends, stop - start)
                    out.append(SendGroup(
                        start, np.arange(k - 1, k - 1 - rounds, -1), (_ROLE_MEMBER,),
                        ids, new_head[ids], np.full(ids.size, ok),
                    ))
            head = new_head
        return out


class _Algorithm2Kernel(_Kernel):
    """Algorithm 2 (Fig. 5): full-set uploads on (re-)affiliation, full-set
    head/gateway broadcasts every round."""

    def __init__(self, n, k, W, TA, M: int):
        super().__init__(n, k, W, TA)
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        self.M = M
        self.budget = M
        self.prev_head = np.full(n, -1, dtype=np.int64)
        self.seen = np.zeros(n, dtype=bool)

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        if r >= self.M:
            return None
        member = self._member_mask(arrs)
        head_arr = self._head_arr(arrs)
        has_tokens = self.TA.any(axis=1)

        uc_senders = _EMPTY_IDS
        uc_dests = _EMPTY_IDS
        uc_ok = _EMPTY_BOOL
        uc_payload = np.empty((0, self.W), dtype=np.uint64)
        if member is not None:
            changed = ~self.seen | (head_arr != self.prev_head)
            can = member & changed & (head_arr >= 0) & has_tokens
            uc_senders = np.nonzero(can)[0]
            if uc_senders.size:
                uc_payload = self.TA[uc_senders]
                uc_dests = head_arr[uc_senders]
                uc_ok = arrs.head_adjacent[uc_senders]
        self.seen[:] = True
        self.prev_head[:] = head_arr

        canb = has_tokens
        if member is not None:
            canb = canb & ~member
        bc_senders = np.nonzero(canb)[0]
        bc_payload = self.TA[bc_senders]

        return _SendBatch(
            bc_senders, bc_payload, _popcounts(bc_payload),
            uc_senders, uc_dests, uc_ok, uc_payload, _popcounts(uc_payload),
        )

    def tail(self, spans):
        """Non-members broadcast their whole set every round; a member
        unicasts its whole set to its head in a round whose head differs
        from the round before's (``-1`` on a flat round)."""
        first, end = spans[0][0], spans[-1][1]
        out = [SendGroup(first, _whole_sets(first, end, self.M), _NON_MEMBERS)]
        prev = self.prev_head
        for start, _, arrs in spans:
            if start >= self.M:
                break
            head = self._head_arr(arrs)
            if arrs.roles is not None:
                ids = ((head != prev) & (arrs.roles == _ROLE_MEMBER) & (head >= 0)).nonzero()[0]
                if ids.size:
                    out.append(SendGroup(
                        start, _ONCE, (_ROLE_MEMBER,),
                        ids, head[ids], arrs.head_adjacent[ids],
                    ))
            prev = head
        return out


class _KLOIntervalKernel(_Kernel):
    """KLO token forwarding: min-id unsent token per phase, all nodes."""

    def __init__(self, n, k, W, TA, T: int, M: int):
        super().__init__(n, k, W, TA)
        if T < 1 or M < 1:
            raise ValueError(f"T and M must be >= 1, got T={T}, M={M}")
        self.T = T
        self.M = M
        self.budget = M * T
        self.TS = np.zeros_like(TA)

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        if r // self.T >= self.M:
            return None
        if r % self.T == 0:
            self.TS[:] = 0
        unsent = self.TA & ~self.TS
        senders = np.nonzero(unsent.any(axis=1))[0]
        if senders.size:
            payload = _lowest_bit_rows(unsent[senders])
            self.TS[senders] |= payload
        else:
            payload = np.empty((0, self.W), dtype=np.uint64)
        return _broadcast_batch(senders, payload, np.ones(senders.size, dtype=np.int64))

    def tail_from(self, r: int) -> bool:
        return r % self.T == 0 or r >= self.budget

    def tail(self, spans):
        """From a phase boundary every node broadcasts token ``j`` at
        phase offset ``j < k``."""
        first, end = spans[0][0], spans[-1][1]
        return [SendGroup(first, _phase_tokens(first, end, self.T, self.k, self.budget))]


class _FullSetBroadcastKernel(_Kernel):
    """Everyone broadcasts their whole token set each round.

    ``M=None`` floods forever (FloodAllNode); otherwise this is the KLO
    1-interval baseline with its ``M``-round budget.
    """

    def __init__(self, n, k, W, TA, M: Optional[int] = None):
        super().__init__(n, k, W, TA)
        if M is not None and M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        self.M = M
        self.budget = M

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        if self.M is not None and r >= self.M:
            return None
        senders = np.nonzero(self.TA.any(axis=1))[0]
        payload = self.TA[senders]
        return _broadcast_batch(senders, payload, _popcounts(payload))

    def tail(self, spans):
        """Every node broadcasts its whole set each round before ``M``."""
        first, end = spans[0][0], spans[-1][1]
        return [SendGroup(first, _whole_sets(first, end, self.M))]


class _FloodNewKernel(_Kernel):
    """Epidemic flooding: broadcast only tokens first learned last round."""

    def __init__(self, n, k, W, TA):
        super().__init__(n, k, W, TA)
        self.fresh = TA.copy()

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        senders = np.nonzero(self.fresh.any(axis=1))[0]
        payload = self.fresh[senders]
        self.fresh[senders] = 0
        return _broadcast_batch(senders, payload, _popcounts(payload))

    def absorb(self, arrs, heard, from_head):
        # only never-seen tokens re-arm the fresh set
        novel = heard & ~self.TA
        self.TA |= novel
        self.fresh |= novel

    def tail_from(self, r: int) -> bool:
        return not self.fresh.any()

    def tail(self, spans):
        """Once nothing is fresh, nothing is ever sent again."""
        return []


_KERNELS = {
    "algorithm1": lambda n, k, W, TA, **p: _Algorithm1Kernel(n, k, W, TA, **p),
    "algorithm1_stable": lambda n, k, W, TA, **p: _Algorithm1Kernel(
        n, k, W, TA, stable=True, **p
    ),
    "algorithm2": lambda n, k, W, TA, **p: _Algorithm2Kernel(n, k, W, TA, **p),
    "klo_interval": lambda n, k, W, TA, **p: _KLOIntervalKernel(n, k, W, TA, **p),
    "klo_one": lambda n, k, W, TA, M: _FullSetBroadcastKernel(n, k, W, TA, M=M),
    "flood_all": lambda n, k, W, TA: _FullSetBroadcastKernel(n, k, W, TA, M=None),
    "flood_new": lambda n, k, W, TA: _FloodNewKernel(n, k, W, TA),
}


# ---------------------------------------------------------------------------
# accounting and sender filtering
# ---------------------------------------------------------------------------

def _account(table: SendTable, batch: _SendBatch) -> None:
    """Bill one round's transmissions to the run's send-count table."""
    senders, costs = batch.bc_senders, batch.bc_costs
    unicasts, dropped = len(batch.uc_senders), 0
    if unicasts:
        senders = np.concatenate((senders, batch.uc_senders))
        costs = np.concatenate((costs, batch.uc_costs))
        dropped = int((~batch.uc_ok).sum())
    table.bill(senders, costs, unicasts, dropped)


def _filter_batch_alive(batch: _SendBatch, alive: np.ndarray) -> _SendBatch:
    """Drop transmissions whose sender crashed — crashed nodes never send."""
    bk = alive[batch.bc_senders]
    uk = alive[batch.uc_senders]
    if bk.all() and uk.all():
        return batch
    return _SendBatch(*(f[bk] for f in batch[:3]), *(f[uk] for f in batch[3:]))


# ---------------------------------------------------------------------------
# packed bit-matrix helpers
# ---------------------------------------------------------------------------

def unpack_rows(bits: np.ndarray) -> List[Tuple[int, ...]]:
    """Decode an ``(n, W)`` uint64 bit-matrix to per-row sorted token tuples.

    Inverse of :func:`~repro.obs.observer.pack_rows`.
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

    ``TA`` is the ``(n, W)`` initial bit-matrix (see
    :func:`~repro.obs.observer.pack_rows` / :func:`pack_single_tokens`)
    and ``kind`` / ``params`` name a kernel (a ``factory.fastpath`` tag).
    :func:`try_run` calls this with the engine's ``initial`` mapping
    packed.  Outputs are
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
            counts = _popcounts(kernel.TA)
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

    held = _popcounts(kernel.TA)
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


# ---------------------------------------------------------------------------
# engine entry
# ---------------------------------------------------------------------------

def try_run(
    engine: SynchronousEngine,
    network,
    factory,
    k: int,
    initial: Mapping[int, FrozenSet[int]],
    max_rounds: int,
    stop_when_complete: bool = False,
    stop_when_finished: bool = True,
    monitors=None,
) -> Optional[RunResult]:
    """Execute a run on the vectorised tier, or return ``None`` if unsupported.

    Supported: factories tagged with a known ``factory.fastpath`` kind, on
    non-adaptive networks.  Everything else about the run — link models,
    latency, every ``obs`` level, runtime monitors — is handled by the
    one round loop, :func:`run_columnar`, which picks its delivery from
    the run's inputs.  ``None`` is only ever returned *before* the first
    round executes, so monitor state is untouched when the engine falls
    back to the reference path.
    """
    spec = getattr(factory, "fastpath", None)
    if spec is None or spec[0] not in _KERNELS:
        return None
    if getattr(network, "adaptive_snapshot", None) is not None:
        return None

    n = network.n
    t0 = time.perf_counter()
    validate_run_args(n, k, initial, max_rounds)
    TA = pack_rows(list(map(initial.get, range(n), repeat(()))), k)
    packed_s = time.perf_counter() - t0
    kind, params = spec
    result = run_columnar(
        engine, network, kind, params, k, TA, max_rounds,
        stop_when_complete=stop_when_complete,
        stop_when_finished=stop_when_finished,
        monitors=monitors,
    )
    if engine.obs == "profile":
        # the pre-loop pack is bookkeeping, as is run_columnar's decode
        result.timeline.profile["bookkeeping"] += packed_s
    return result

"""Vectorised bitset kernels for the token-dissemination algorithm family.

The reference engine (:mod:`repro.sim.engine`) dispatches per-node Python
objects exchanging ``frozenset`` token sets — ideal for clarity and for
arbitrary user algorithms, but the hot loop of every benchmark sweep.
This module re-implements the *fixed* algorithm family of the paper
(Algorithm 1, its Remark-1 stable-heads variant, Algorithm 2, both KLO
baselines, and the two flooding baselines) as vectorised kernels:

* a node's token set is a row of ``uint64`` words (one bit per token), so
  set union is ``|``, difference is ``& ~``, and cardinality is a popcount;
* per-round topology comes from CSR arrays
  (:class:`~repro.sim.topology.SnapshotArrays`);
* send/receive for all ``n`` nodes are a handful of numpy array operations
  instead of ``2n`` Python method calls.

Each kernel has one ``send`` and one receive rule, :meth:`_Kernel.absorb`,
which sees a round's deliveries as dense ``(n, W)`` rows however the round
loop in :mod:`repro.sim.columnar` delivered them.  This module also holds
the send accounting (a round's batch billed into its row of the run's
:class:`~repro.obs.observer.SendTable`, as the reference engine bills
its sends) and the sender filtering both of that loop's deliveries
share.

**Bit-identical results.**  For supported algorithms the vectorised tier
reproduces the reference engine exactly: outputs, metrics, timelines,
causal traces, recordings, monitor violations and drop/loss accounting —
because every :class:`~repro.sim.linkmodel.LinkModel` decision is a pure
counter-based hash of ``(seed, round, edge)``, also under loss, churn,
pinpoint faults and ``latency > 1``.  The equivalence suites in
``tests/test_fastpath.py``, ``tests/test_columnar.py``,
``tests/test_obs.py``, ``tests/test_causal_trace.py`` and
``tests/test_linkmodel.py`` assert this.

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
from typing import FrozenSet, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..obs.observer import SendTable
from .engine import RunResult, SynchronousEngine, validate_run_args
from .topology import SnapshotArrays

__all__ = ["try_run"]

_U1 = np.uint64(1)

_ROLE_HEAD, _ROLE_GATEWAY, _ROLE_MEMBER = 0, 1, 2


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
    ``None`` for a silent round) and :meth:`finished`; the default
    :meth:`absorb` ORs everything a node heard into ``TA`` — the
    reference rule "absorb everything you hear".
    """

    #: Whether :meth:`absorb` needs ``from_head`` (see there).
    hears_heads = False

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
        :func:`~repro.sim.columnar.run_columnar` relies on it to skip the
        delivery of saturated rounds; ``tests/test_columnar.py`` checks
        every kind in ``_KERNELS``.
        """
        self.TA |= heard

    def finished(self, r: int) -> bool:
        """Whether every node has locally terminated after round ``r``."""
        return False

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

    def finished(self, r: int) -> bool:
        return r + 1 >= self.M * self.T


class _Algorithm2Kernel(_Kernel):
    """Algorithm 2 (Fig. 5): full-set uploads on (re-)affiliation, full-set
    head/gateway broadcasts every round."""

    def __init__(self, n, k, W, TA, M: int):
        super().__init__(n, k, W, TA)
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        self.M = M
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

    def finished(self, r: int) -> bool:
        return r + 1 >= self.M


class _KLOIntervalKernel(_Kernel):
    """KLO token forwarding: min-id unsent token per phase, all nodes."""

    def __init__(self, n, k, W, TA, T: int, M: int):
        super().__init__(n, k, W, TA)
        if T < 1 or M < 1:
            raise ValueError(f"T and M must be >= 1, got T={T}, M={M}")
        self.T = T
        self.M = M
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

    def finished(self, r: int) -> bool:
        return r + 1 >= self.M * self.T


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

    def send(self, r: int, arrs: SnapshotArrays) -> Optional[_SendBatch]:
        if self.M is not None and r >= self.M:
            return None
        senders = np.nonzero(self.TA.any(axis=1))[0]
        payload = self.TA[senders]
        return _broadcast_batch(senders, payload, _popcounts(payload))

    def finished(self, r: int) -> bool:
        return self.M is not None and r + 1 >= self.M


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
# accounting and delivery
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
    non-adaptive networks.  Everything
    else about the run — link models, latency, every ``obs`` level,
    runtime monitors — is handled by the one round loop,
    :func:`repro.sim.columnar.run_columnar`, which picks its delivery from
    the run's inputs.  ``None`` is only ever returned *before* the first
    round executes, so monitor state is untouched when the engine falls
    back to the reference path.
    """
    spec = getattr(factory, "fastpath", None)
    if spec is None or spec[0] not in _KERNELS:
        return None
    if getattr(network, "adaptive_snapshot", None) is not None:
        return None

    from .columnar import pack_rows, run_columnar  # columnar imports this module

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

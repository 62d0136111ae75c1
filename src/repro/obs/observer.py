"""One per-round feed from an engine's round loop into every obs consumer.

Both round loops — the reference :class:`~repro.sim.engine.ActiveRun`
and the vectorised :func:`~repro.sim.columnar.run_columnar` — build one
:class:`RunObserver` per run and call it three times per round:

1. :meth:`RunObserver.open_round` with the round's
   :class:`~repro.sim.topology.SnapshotArrays`;
2. :meth:`RunObserver.sends` with the round's per-role send counts and,
   at ``obs="record"``, its packed message log;
3. :meth:`RunObserver.close_round` with the end-of-round state.

:meth:`RunObserver.finish` hands back the timeline, causal trace,
recording and violations.  Every consumer is derived here, once, from
those calls: the :class:`RunTimeline` (populations, per-role sends,
coverage), the live :class:`~repro.obs.stream.TelemetryBus` (round
events and monitor alerts), the :class:`CausalTrace` (first learns from
the packed state diff plus the round's flat deliveries), the
:class:`RunRecorder` (hierarchy, message log, state diffs) and the
runtime monitors (one :class:`RoundView` per round).  The engines hold
no per-consumer code, so the bit-identity of every obs artifact across
tiers rests on one implementation each.

State is exchanged as a packed ``(n, W)`` ``uint64`` bit-matrix — row
``v`` has bit ``t`` set iff node ``v`` holds token ``t`` — the
vectorised tier's native layout; :func:`pack_rows` builds it from
per-node token sets, :func:`rows_tokens` decodes it to per-row lists and
:func:`rows_frozensets` to per-row sets, one shared set per distinct row.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .monitors import Monitor, RoundView, Violation
from .recorder import RunRecorder, RunRecording
from .timeline import Profiler, RunTimeline
from .trace import CausalTrace, first_learns

__all__ = [
    "ROLE_NAMES",
    "RunObserver",
    "pack_rows",
    "rows_frozensets",
    "rows_tokens",
    "words_for",
]

#: Role names indexed by the role codes of
#: :class:`~repro.sim.topology.SnapshotArrays` (``ROLE_CODES``).
ROLE_NAMES = ("head", "gateway", "member")

#: Role code → the packed-recording role letter (codes index ``"hgm"``).
_ROLE_LETTERS = np.frombuffer(b"hgm", dtype=np.uint8)

_U1 = np.uint64(1)

#: Per-node token collections, or the packed bit-matrix itself.
State = Union[np.ndarray, Sequence[Iterable[int]]]

#: A round's flat deliveries: (receiver, sender, packed payload) arrays.
Flat = Tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# the packed bit-matrix encoding
# ---------------------------------------------------------------------------

def words_for(k: int) -> int:
    """Number of uint64 words per row for a k-token instance."""
    return max(1, (k + 63) // 64)


def pack_rows(token_rows: Sequence[Iterable[int]], k: int) -> np.ndarray:
    """Pack per-node token collections into an ``(n, W)`` uint64 bit-matrix.

    Row ``v`` has bit ``t`` set iff token ``t`` appears in
    ``token_rows[v]``.  Inverse of :func:`rows_tokens`.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    m = len(token_rows)
    lens = np.fromiter(map(len, token_rows), dtype=np.int64, count=m)
    out = np.zeros((m, words_for(k)), dtype=np.uint64)
    flat = np.fromiter(
        chain.from_iterable(token_rows), dtype=np.int64, count=int(lens.sum())
    )
    bad = np.flatnonzero((flat < 0) | (flat >= k))
    if bad.size:
        raise ValueError(f"token {int(flat[bad[0]])} outside 0..{k - 1}")
    rows = np.repeat(np.arange(m, dtype=np.int64), lens)
    np.bitwise_or.at(out, (rows, flat >> 6), _U1 << (flat & 63).astype(np.uint64))
    return out


def rows_tokens(rows: np.ndarray) -> List[List[int]]:
    """Decode an ``(m, W)`` uint64 bit-matrix to per-row sorted token lists.

    One vectorised pass: one ``unpackbits`` plus one ``flatnonzero``;
    each row's list is a slice of the one flat token list.
    """
    if rows.shape[0] == 0:
        return []
    rows = np.ascontiguousarray(rows, dtype="<u8")
    bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
    # a bool view takes numpy's fast nonzero path (unpacked bits are 0/1)
    tokens = (np.flatnonzero(bits.view(bool)) % bits.shape[1]).tolist()
    ends = np.cumsum(np.bitwise_count(rows).sum(axis=1)).tolist()
    return [tokens[a:b] for a, b in zip([0, *ends], ends)]


def rows_frozensets(rows: np.ndarray) -> List[FrozenSet[int]]:
    """Decode an ``(m, W)`` uint64 bit-matrix to per-row frozensets.

    Equal rows decode once and share one ``frozenset``: one ``np.unique``
    over the rows as ``8·W``-byte keys, :func:`rows_tokens` on the
    distinct rows only, and an index by the inverse.  A k-token run ends
    with few distinct sets, so this costs per distinct set, not per node.
    """
    m, W = rows.shape
    if m == 0:
        return []
    keys = np.ascontiguousarray(rows, dtype="<u8").view(np.dtype((np.void, 8 * W)))
    distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
    sets = list(map(frozenset, rows_tokens(distinct.view("<u8").reshape(-1, W))))
    return list(map(sets.__getitem__, inverse.tolist()))


def _changed(rows: np.ndarray) -> List[Tuple[int, List[int]]]:
    """``(node, sorted tokens)`` for every non-zero row."""
    idx = np.flatnonzero(rows.any(axis=1))
    return list(zip(idx.tolist(), rows_tokens(rows[idx])))


# ---------------------------------------------------------------------------
# the observer
# ---------------------------------------------------------------------------

class RunObserver:
    """Every obs consumer of one run, fed by three calls per round.

    ``obs`` is the engine's telemetry level; ``initial`` the state before
    round 0 (packed, or per-node token collections — packed here only at
    ``obs="trace"``/``"record"``, the levels that diff state).  The
    ``wants_*`` attributes tell the engine which optional inputs of
    :meth:`sends` / :meth:`close_round` it must supply.
    """

    def __init__(
        self,
        obs: str,
        n: int,
        k: int,
        initial: State,
        monitors: Optional[Sequence[Monitor]] = None,
        stream=None,
    ) -> None:
        self.n = n
        self.k = k
        self.stream = stream
        self.monitors: List[Monitor] = list(monitors) if monitors else []
        self.timeline = RunTimeline() if obs != "off" else None
        self.profiler = Profiler() if obs == "profile" else None
        self.causal = CausalTrace(n=n, k=k) if obs == "trace" else None
        self.recorder: Optional[RunRecorder] = None
        # last round's state (the recording's exact diff base), or every
        # token ever held (the causal trace's first-learn base)
        self._prev: Optional[np.ndarray] = None
        self._roles: Optional[np.ndarray] = None
        self._lost = 0
        self._pack_memo: Dict[int, Tuple[object, tuple]] = {}
        if obs in ("trace", "record"):
            self._prev = self._packed(initial).copy()
            if self.causal is not None:
                for node, toks in enumerate(rows_tokens(self._prev)):
                    for t in toks:
                        self.causal.record_origin(node, t)
            else:
                self.recorder = RunRecorder(
                    n, k, dict(enumerate(rows_frozensets(self._prev)))
                )

    @property
    def wants_state(self) -> bool:
        """:meth:`close_round` needs the end-of-round ``state``."""
        return self._prev is not None

    @property
    def wants_deliveries(self) -> bool:
        """:meth:`close_round` needs the round's flat ``deliveries``."""
        return self.causal is not None

    @property
    def wants_log(self) -> bool:
        """:meth:`sends` needs the packed message ``log``."""
        return self.recorder is not None

    @property
    def wants_views(self) -> bool:
        """:meth:`close_round` needs ``per_node`` and ``snap``."""
        return bool(self.monitors)

    def _packed(self, state: State) -> np.ndarray:
        if isinstance(state, np.ndarray):
            return state
        return pack_rows(state, self.k)

    # -- the three per-round calls ----------------------------------------

    def open_round(self, arrs) -> None:
        """Open round counters: populations and the recorded hierarchy."""
        self._roles = arrs.roles
        timeline = self.timeline
        if timeline is not None:
            timeline.begin_round()
            if arrs.roles is not None:
                pops = np.bincount(arrs.roles, minlength=3)
                timeline.record_populations({
                    name: int(pops[code]) for code, name in enumerate(ROLE_NAMES)
                })
        if self.recorder is not None:
            self.recorder.begin_round_packed(*self._hierarchy(arrs))

    def sends(
        self,
        by_role: Iterable[Tuple[str, int, int]],
        log: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Account the round's transmissions.

        ``by_role`` holds ``(role, messages, tokens)`` rows; ``log`` (at
        ``obs="record"``) is ``(senders, dests, payload, costs)`` with
        ``dest == -1`` for a broadcast and packed payload rows.
        Zero-cost transmissions are free and left out of the log.
        """
        if self.timeline is not None:
            for role, messages, tokens in by_role:
                self.timeline.record_sends(role, messages, tokens)
        if log is not None and self.recorder is not None:
            senders, dests, payload, costs = log
            keep = np.flatnonzero(costs != 0)
            self.recorder.record_sends(
                senders[keep].tolist(), dests[keep].tolist(),
                rows_tokens(payload[keep]), costs[keep].tolist(),
            )

    def close_round(
        self,
        r: int,
        coverage: int,
        nodes_complete: int,
        metrics,
        *,
        state: Optional[State] = None,
        deliveries: Optional[Flat] = None,
        per_node: Optional[Sequence[int]] = None,
        faults: Optional[Tuple[Tuple[int, ...], int]] = None,
        snap=None,
        unchanged: bool = False,
    ) -> None:
        """Close round ``r`` with its end-of-round state.

        ``state`` is required when :attr:`wants_state`, ``deliveries``
        (every delivery that landed this round; ``None`` for none) when
        :attr:`wants_deliveries`, and ``per_node`` / ``snap`` when
        :attr:`wants_views`; ``faults`` is ``(newly crashed ids, tokens
        they held)`` on runs with a link model, else ``None``.
        ``unchanged`` promises that ``state`` equals the previous round's
        (a round that started saturated): the state diff is skipped and
        the round gains and loses nothing.
        """
        if unchanged:
            if self.recorder is not None:
                self.recorder.end_round((), ())
        elif self._prev is not None:
            bits = self._packed(state)
            new = bits & ~self._prev
            gained = _changed(new)
            if self.causal is not None:
                roles = self._roles
                for v, t, sender in first_learns(gained, deliveries):
                    role = (
                        ROLE_NAMES[roles[sender]]
                        if sender >= 0 and roles is not None else "flat"
                    )
                    self.causal.record_learn(v, t, r, sender, role)
                self._prev |= new
            else:
                self.recorder.end_round(gained, _changed(self._prev & ~bits))
                self._prev[...] = bits
        stream = self.stream
        if self.timeline is not None:
            self.timeline.end_round(coverage, nodes_complete)
            if stream is not None:
                stream.on_round(self.timeline)
        lost, self._lost = metrics.lost_deliveries - self._lost, metrics.lost_deliveries
        if not self.monitors:
            return
        faults_info = None
        if faults is not None:
            crashed, crash_tokens = faults
            faults_info = {
                "crashed": crashed, "crash_tokens": crash_tokens, "lost": lost,
            }
        view = RoundView(
            round_index=r,
            snap=snap,
            coverage=coverage,
            nodes_complete=nodes_complete,
            per_node=per_node,
            n=self.n,
            k=self.k,
            faults=faults_info,
            tokens_sent=metrics.tokens_sent,
            messages_sent=metrics.messages_sent,
        )
        for monitor in self.monitors:
            before = len(monitor.violations)
            monitor.observe(view)
            if stream is not None:
                for violation in monitor.violations[before:]:
                    stream.alert(violation)

    def finish(
        self, rounds: int, complete: bool
    ) -> Tuple[
        Optional[RunTimeline], Optional[CausalTrace],
        Optional[RunRecording], Optional[List[Violation]],
    ]:
        """``(timeline, causal trace, recording, violations)`` of the run,
        with the profile folded into the timeline."""
        if self.timeline is not None and self.profiler is not None:
            self.timeline.profile.update(self.profiler.seconds)
        violations = None
        if self.monitors:
            for monitor in self.monitors:
                monitor.finish(rounds, complete)
            violations = [v for m in self.monitors for v in m.violations]
        recording = self.recorder.finish() if self.recorder is not None else None
        return self.timeline, self.causal, recording, violations

    # -- helpers -----------------------------------------------------------

    def _hierarchy(self, arrs) -> Tuple[Optional[str], Optional[Tuple[int, ...]]]:
        """The arrays' roles/head_of in the recording encoding.

        Memoized by arrays identity (a strong reference is kept so ``id``
        cannot be recycled) — static networks pay the O(n) packing once.
        """
        hit = self._pack_memo.get(id(arrs))
        if hit is not None and hit[0] is arrs:
            return hit[1]
        roles = None
        if arrs.roles is not None:
            roles = _ROLE_LETTERS[arrs.roles.astype(np.int64)].tobytes().decode("ascii")
        head_of = None
        if arrs.head_of is not None:
            head_of = tuple(arrs.head_of.tolist())
        self._pack_memo[id(arrs)] = (arrs, (roles, head_of))
        return roles, head_of

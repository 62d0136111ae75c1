"""One per-round feed from an engine's round loop into every obs consumer.

Both round loops — the reference :class:`~repro.sim.engine.ActiveRun`
and the vectorised :func:`~repro.sim.fastpath.run_columnar` — build one
:class:`RunObserver` per run and feed it each round:

1. :meth:`RunObserver.open_round` with the round's
   :class:`~repro.sim.topology.SnapshotArrays`, which opens the round's
   row of the run's :class:`SendTable`;
2. the round's transmissions, billed into that row with one
   :meth:`SendTable.bill` call (:attr:`RunObserver.table`), and at
   ``obs="record"`` the packed message log
   (:meth:`RunObserver.log_sends`);
3. :meth:`RunObserver.close_round` with the end-of-round state.

Once every node holds every token, the vectorised tier may describe all
of a run's remaining rounds at once: :meth:`RunObserver.close_saturated`
takes them as runs of rounds that share one hierarchy, each with its
:class:`SendGroup`\\ s, in place of those three calls per round.

:meth:`RunObserver.finish` settles the run's
:class:`~repro.sim.metrics.Metrics` send counters from the table and
hands back the timeline, causal trace, recording and violations.  Every
consumer is derived here, once, from those calls: the
:class:`RunTimeline` (built once, at the end of the run, from the
send-count table and the per-round coverage), the live
:class:`~repro.obs.stream.TelemetryBus` (round events read from the
table row, and monitor alerts), the :class:`CausalTrace` (first learns
from the packed state diff plus the round's flat deliveries), the
:class:`RunRecorder` (hierarchy, message log, state diffs) and the
runtime monitors (one :class:`RoundView` per round).  The engines hold
no per-consumer code, so the bit-identity of every obs artifact across
tiers rests on one implementation each — the send counters of both
tiers' :class:`~repro.sim.metrics.Metrics` included.

State is exchanged as a packed ``(n, W)`` ``uint64`` bit-matrix — row
``v`` has bit ``t`` set iff node ``v`` holds token ``t`` — the
vectorised tier's native layout; :func:`pack_rows` builds it from
per-node token sets (:func:`pack_tokens` from flat token arrays),
:func:`~repro.obs.recorder.rows_tokens` decodes it
to per-row lists and :func:`rows_frozensets` to per-row sets, one shared
set per distinct row.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from .monitors import Monitor, RoundView, Violation
from .recorder import SILENT, WHOLE_SET, RunRecorder, RunRecording, rows_tokens
from .timeline import Profiler, RunTimeline, encode_round
from .trace import CausalTrace, first_learns

__all__ = [
    "ROLE_NAMES",
    "RunObserver",
    "SILENT",
    "SendGroup",
    "SendTable",
    "WHOLE_SET",
    "pack_rows",
    "pack_tokens",
    "rows_frozensets",
    "words_for",
]

#: Role names indexed by the role codes of
#: :class:`~repro.sim.topology.SnapshotArrays` (``ROLE_CODES``).
ROLE_NAMES = ("head", "gateway", "member")

#: Sender-role columns of a :class:`SendTable`: the role codes, then
#: ``"flat"`` for rounds without roles.
SEND_ROLES = ROLE_NAMES + ("flat",)

_COLUMN = {role: j for j, role in enumerate(SEND_ROLES)}
_FLAT = _COLUMN["flat"]
#: Offset of a role's token column from its message column.
_TOK = len(SEND_ROLES)

#: ``(role, message column, token column)`` in role-name order, the
#: order round events list roles in.
_EVENT_COLUMNS = [(role, j, _TOK + j) for role, j in sorted(_COLUMN.items())]

#: A round without roles, in a run that had some: every population is 0.
_NO_POPULATIONS = sorted((role, 0) for role in ROLE_NAMES)

_U1 = np.uint64(1)

#: Per-node token collections, or the packed bit-matrix itself.
State = Union[np.ndarray, Sequence[Iterable[int]]]

#: A round's flat deliveries: (receiver, sender, packed payload) arrays.
Flat = Tuple[np.ndarray, np.ndarray, np.ndarray]


class SendGroup(NamedTuple):
    """Nodes that send alike through a run of saturated rounds.

    The run is rounds ``start`` to ``start + len(tokens) - 1``; in round
    ``start + i`` each of the group's senders sends
    ``tokens[i]``: one token id, :data:`WHOLE_SET` (all ``k`` tokens,
    since every node holds them) or :data:`SILENT` (nothing).  A token
    costs 1 and the whole set ``k``.  The senders are every node whose
    role code is in ``roles`` (every node in a round without roles), or,
    when ``nodes`` is given, those ids (ascending), each of role
    ``roles[0]`` in every round of the group.  ``dests`` is ``None`` for
    broadcasts, else each node's unicast destination, with ``ok``
    telling whether it is delivered (a neighbour).
    """

    start: int
    tokens: np.ndarray
    roles: Tuple[int, ...] = (0, 1, 2)
    nodes: Optional[np.ndarray] = None
    dests: Optional[np.ndarray] = None
    ok: Optional[np.ndarray] = None


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
    flat = np.fromiter(
        chain.from_iterable(token_rows), dtype=np.int64, count=int(lens.sum())
    )
    bad = np.flatnonzero((flat < 0) | (flat >= k))
    if bad.size:
        raise ValueError(f"token {int(flat[bad[0]])} outside 0..{k - 1}")
    return pack_tokens(m, k, np.arange(m, dtype=np.int64), lens, flat)


def pack_tokens(
    m: int, k: int, rows: np.ndarray, counts: np.ndarray, tokens: np.ndarray
) -> np.ndarray:
    """Pack flat token arrays into an ``(m, W)`` uint64 bit-matrix.

    Row ``rows[i]`` gets the next ``counts[i]`` entries of ``tokens``,
    each in ``0..k-1`` (unchecked); rows not named stay empty.
    """
    W = words_for(k)
    out = np.zeros((m, W), dtype=np.uint64)
    np.bitwise_or.at(
        out.reshape(-1),
        np.repeat(rows * W, counts) + (tokens >> 6),
        _U1 << (tokens & 63).astype(np.uint64),
    )
    return out


def rows_frozensets(rows: np.ndarray) -> List[FrozenSet[int]]:
    """Decode an ``(m, W)`` uint64 bit-matrix to per-row frozensets.

    Equal rows decode once and share one ``frozenset``: one ``np.unique``
    over the rows as keys (the ``uint64`` word itself when ``W == 1``,
    else ``8·W``-byte void keys), :func:`rows_tokens` on the distinct
    rows only, and an index by the inverse.  A k-token run ends with few
    distinct sets, so this costs per distinct set, not per node.
    """
    m, W = rows.shape
    if m == 0:
        return []
    if W == 1:
        distinct, inverse = np.unique(rows[:, 0], return_inverse=True)
        distinct = distinct[:, None]
    else:
        keys = np.ascontiguousarray(rows, dtype="<u8").view(np.dtype((np.void, 8 * W)))
        distinct, inverse = np.unique(keys.ravel(), return_inverse=True)
        distinct = distinct.view("<u8").reshape(-1, W)
    sets = list(map(frozenset, rows_tokens(distinct)))
    return list(map(sets.__getitem__, inverse.tolist()))


# ---------------------------------------------------------------------------
# the send-count table
# ---------------------------------------------------------------------------

class SendTable:
    """Per-round messages and tokens by sender role, for one run.

    Row ``r`` of :attr:`counts` is round ``r``: messages in columns
    ``0..3`` and tokens in columns ``4..7``, one column per
    :data:`SEND_ROLES` entry.  Rows are opened by :meth:`open` and grow
    by doubling with the rounds a run executes, never with its budget.
    This table is the run's only send ledger: both engine tiers write a
    round with one :meth:`bill` call (its senders, costs, unicast and
    dropped-unicast counts), which also adds to the run's
    :attr:`broadcasts`, :attr:`unicasts` and :attr:`dropped_unicasts`,
    and :meth:`settle` fills the send counters of the run's
    :class:`~repro.sim.metrics.Metrics` from the rows.

    Hierarchy populations are counted once per distinct ``roles`` array
    (rounds of one phase share it) and indexed per round, ``-1`` for a
    round without roles.  Saturated rounds are opened a run of rounds at
    a time, and :meth:`bill_saturated` bills all their sends in one
    write.
    """

    __slots__ = (
        "counts", "rounds", "broadcasts", "unicasts", "dropped_unicasts",
        "_pop_of", "_pops", "_pop_events", "_pop", "_roles", "_first_roles",
    )

    def __init__(self) -> None:
        self.counts = np.zeros((64, 2 * _TOK), dtype=np.int64)
        self.rounds = 0
        self.broadcasts = self.unicasts = self.dropped_unicasts = 0
        self._pop_of = np.full(64, -1, dtype=np.int64)
        # per distinct roles array: node counts by role code, and as the
        # (role, nodes) pairs of a round event
        self._pops: List[List[int]] = []
        self._pop_events: List[List[Tuple[str, int]]] = []
        self._pop = -1  # the open round's index into them
        self._roles: Optional[np.ndarray] = None
        self._first_roles: Optional[int] = None  # the first round with roles

    # -- per-round writes --------------------------------------------------

    def open(self, roles: Optional[np.ndarray], rounds: int = 1) -> None:
        """Open the next ``rounds`` rows; ``roles`` are their role codes."""
        r = self.rounds
        end = r + rounds
        while end > self.counts.shape[0]:
            size = self.counts.shape[0]
            self.counts = np.concatenate((self.counts, np.zeros_like(self.counts)))
            self._pop_of = np.concatenate((self._pop_of, np.full(size, -1, np.int64)))
        if roles is None:
            self._pop = -1
        else:
            if roles is not self._roles:
                self._roles = roles  # a strong reference: ids are not reused
                pops = np.bincount(roles, minlength=len(ROLE_NAMES)).tolist()
                self._pops.append(pops)
                self._pop_events.append(sorted(zip(ROLE_NAMES, pops)))
            if self._first_roles is None:
                self._first_roles = r
            self._pop = len(self._pops) - 1
            self._pop_of[r:end] = self._pop
        self.rounds = end

    def bill(
        self, senders: np.ndarray, costs: np.ndarray, unicasts: int, dropped: int
    ) -> None:
        """Bill the open round's transmissions — the one writer of sends
        on either tier.

        ``senders`` and ``costs`` hold one entry per transmission;
        ``unicasts`` of them were unicasts, ``dropped`` of those to a
        destination that was not a neighbour (still billed: the radio
        transmitted).  Senders are billed to their role in the open
        round, or to ``"flat"`` on a round without roles.
        """
        self.broadcasts += len(senders) - unicasts
        self.unicasts += unicasts
        self.dropped_unicasts += dropped
        row = self.counts[self.rounds - 1]
        if self._pop < 0:
            row[_FLAT] = len(senders)
            row[_TOK + _FLAT] = int(costs.sum())
            return
        codes = self._roles[senders]
        row[:_FLAT] = np.bincount(codes, minlength=_FLAT)
        row[_TOK:_TOK + _FLAT] = np.bincount(
            codes, weights=costs, minlength=_FLAT
        )

    def bill_saturated(self, groups: Sequence[SendGroup], n: int, k: int) -> None:
        """Bill the sends of saturated rounds, already opened, in one
        write: every :class:`SendGroup` of ``groups``, in rounds where
        each of the ``n`` nodes holds all ``k`` tokens."""
        if not groups:
            return
        # one entry per (group, round): its row, and its senders by column
        sizes = [len(g.tokens) for g in groups]
        entry = np.repeat(np.arange(len(groups)), sizes)
        rows = np.arange(len(entry)) + np.repeat(
            [g.start - offset for g, offset in zip(groups, accumulate(sizes, initial=0))],
            sizes,
        )
        pop = self._pop_of[rows]
        listed = np.array([g.nodes is not None for g in groups])[entry]
        chosen = np.zeros((len(groups), _FLAT), dtype=bool)
        for j, g in enumerate(groups):
            chosen[j, list(g.roles)] = True
        senders = np.zeros((len(rows), _TOK), dtype=np.int64)
        pops = np.array(self._pops + [[0] * _FLAT], dtype=np.int64)  # -1: no roles
        senders[:, :_FLAT] = pops[pop] * (chosen[entry] & ~listed[:, None])
        senders[(pop < 0) & ~listed, _FLAT] = n
        # a listed group's nodes all hold its first role (flat: no role)
        column = np.where(pop < 0, _FLAT, np.array([g.roles[0] for g in groups])[entry])
        size = np.array([0 if g.nodes is None else len(g.nodes) for g in groups])[entry]
        senders[listed, column[listed]] = size[listed]
        tokens = np.concatenate([g.tokens for g in groups])
        sends = tokens != SILENT
        costs = np.where(tokens == WHOLE_SET, k, sends)
        np.add.at(self.counts[:, :_TOK], rows, senders * sends[:, None])
        np.add.at(self.counts[:, _TOK:], rows, senders * costs[:, None])
        sent = senders.sum(axis=1) * sends
        unicast = np.array([g.dests is not None for g in groups])[entry]
        missed = np.array([0 if g.ok is None else np.count_nonzero(~g.ok) for g in groups])
        self.broadcasts += int(sent[~unicast].sum())
        self.unicasts += int(sent[unicast].sum())
        self.dropped_unicasts += int((missed[entry] * sends).sum())

    # -- reads -------------------------------------------------------------

    def row_totals(self, r: int) -> Tuple[int, int]:
        """``(messages, tokens)`` sent in round ``r``."""
        row = self.counts[r].tolist()
        return sum(row[:_TOK]), sum(row[_TOK:])

    def round_event(self, r: int, coverage: int, nodes_complete: int) -> Dict:
        """Round ``r``'s ``round`` event (populations are listed once a
        round up to ``r`` had roles)."""
        return self._event(
            r, self.counts[r].tolist(), int(self._pop_of[r]), coverage, nodes_complete
        )

    def round_events(
        self, rounds: Sequence[int], coverage: int, nodes_complete: int
    ) -> Iterator[Dict]:
        """:meth:`round_event` of each of ``rounds``, all ending with
        ``coverage`` and ``nodes_complete``, their rows read at once."""
        rows = self.counts[rounds].tolist()
        for r, row, pop in zip(rounds, rows, self._pop_of[rounds].tolist()):
            yield self._event(r, row, pop, coverage, nodes_complete)

    def _event(
        self, r: int, row: List[int], pop: int, coverage: int, nodes_complete: int
    ) -> Dict:
        populations = None
        if self._first_roles is not None and self._first_roles <= r:
            populations = self._pop_events[pop] if pop >= 0 else _NO_POPULATIONS
        return encode_round(
            r, coverage, nodes_complete, sum(row[:_TOK]), sum(row[_TOK:]),
            [
                (role, row[m], row[t]) for role, m, t in _EVENT_COLUMNS
                if row[m] or row[t]
            ],
            populations,
        )

    def _order(self) -> List[int]:
        """Columns of the roles that sent, by first round, then code."""
        sent = self.counts[:self.rounds, :_TOK] > 0
        present = np.flatnonzero(sent.any(axis=0)).tolist()
        first = sent.argmax(axis=0).tolist() if present else []
        return sorted(present, key=first.__getitem__)

    def by_role(self) -> List[Tuple[str, int, int]]:
        """``(role, messages, tokens)`` run totals of the roles that sent."""
        totals = self.counts[:self.rounds].sum(axis=0).tolist()
        return [
            (SEND_ROLES[j], totals[j], totals[_TOK + j]) for j in self._order()
        ]

    def tokens(self) -> List[int]:
        """Tokens sent per round."""
        return self.counts[:self.rounds, _TOK:].sum(axis=1).tolist()

    def settle(self, metrics) -> None:
        """Fill the send counters of ``metrics``
        (a :class:`~repro.sim.metrics.Metrics`) from the rounds billed so
        far — the one place either tier's metrics get them."""
        from ..sim.metrics import RoleCost  # repro.sim imports this module

        by_role = self.by_role()
        metrics.by_role = {
            role: RoleCost(tokens=tokens, messages=messages)
            for role, messages, tokens in by_role
        }
        metrics.messages_sent = sum(messages for _, messages, _ in by_role)
        metrics.tokens_sent = sum(tokens for _, _, tokens in by_role)
        metrics.broadcasts = self.broadcasts
        metrics.unicasts = self.unicasts
        metrics.dropped_unicasts = self.dropped_unicasts
        metrics.per_round_tokens = self.tokens()

    def timeline(
        self, coverage: Sequence[int], nodes_complete: Sequence[int]
    ) -> RunTimeline:
        """The run's :class:`RunTimeline`, with the given per-round
        coverage and complete-node counts."""
        counts = self.counts[:self.rounds]
        order = self._order()
        populations: Dict[str, List[int]] = {}
        if self._pops:
            # index -1 (a round without roles) reads the appended zero row
            pops = np.array(self._pops + [[0] * len(ROLE_NAMES)], dtype=np.int64)
            per_round = pops[self._pop_of[:self.rounds]]
            populations = {
                name: per_round[:, c].tolist() for c, name in enumerate(ROLE_NAMES)
            }
        return RunTimeline(
            coverage=list(coverage),
            nodes_complete=list(nodes_complete),
            tokens=self.tokens(),
            messages=counts[:, :_TOK].sum(axis=1).tolist(),
            role_messages={SEND_ROLES[j]: counts[:, j].tolist() for j in order},
            role_tokens={
                SEND_ROLES[j]: counts[:, _TOK + j].tolist() for j in order
            },
            populations=populations,
        )


# ---------------------------------------------------------------------------
# the observer
# ---------------------------------------------------------------------------

class RunObserver:
    """Every obs consumer of one run, fed once per round.

    ``obs`` is the engine's telemetry level; ``initial`` the state before
    round 0 (packed, or per-node token collections — packed here only at
    ``obs="trace"``/``"record"``, the levels that diff state).  The
    ``wants_*`` attributes tell the engine which optional inputs of
    :meth:`log_sends` / :meth:`close_round` it must supply.
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
        self.table = SendTable()
        self.profiler = Profiler() if obs == "profile" else None
        self.causal = CausalTrace(n=n, k=k) if obs == "trace" else None
        self.recorder: Optional[RunRecorder] = None
        # last round's state (the recording's exact diff base), or every
        # token ever held (the causal trace's first-learn base)
        self._prev: Optional[np.ndarray] = None
        self._roles: Optional[np.ndarray] = None
        # per-round coverage for the timeline (None at obs="off")
        self._coverage: Optional[List[int]] = None if obs == "off" else []
        self._complete: List[int] = []
        # running send totals for the monitors' round views
        self._messages = self._tokens = 0
        self._lost = 0
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
        """:meth:`log_sends` needs the round's packed message log."""
        return self.recorder is not None

    @property
    def wants_views(self) -> bool:
        """:meth:`close_round` needs ``per_node`` and ``snap``."""
        return bool(self.monitors)

    def _packed(self, state: State) -> np.ndarray:
        if isinstance(state, np.ndarray):
            return state
        return pack_rows(state, self.k)

    # -- the per-round calls -----------------------------------------------

    def open_round(self, arrs) -> None:
        """Open the round: its send-count row and the recorded hierarchy."""
        self._roles = arrs.roles
        self.table.open(arrs.roles)
        if self.recorder is not None:
            self.recorder.begin_round(arrs.roles, arrs.head_of)

    def log_sends(
        self, log: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        """Record the round's message log (when :attr:`wants_log`).

        ``log`` is ``(senders, dests, payload, costs)`` with ``dest ==
        -1`` for a broadcast and packed payload rows.  Zero-cost
        transmissions are free and left out of the log.
        """
        self.recorder.record_sends(*log)

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
        they held)`` on runs with a link model, else ``None``;
        ``metrics`` supplies the run's lost deliveries so far.
        ``unchanged`` promises that ``state`` equals the previous round's
        (a round that started saturated): the state diff is skipped and
        the round gains and loses nothing.
        """
        if unchanged:
            if self.recorder is not None:
                self.recorder.end_round()
        elif self._prev is not None:
            bits = self._packed(state)
            new = bits & ~self._prev
            if self.causal is not None:
                nodes, tokens, senders = first_learns(new, deliveries)
                # a sender's role in this round, "flat" without one
                codes = np.full(senders.size, _FLAT)
                if self._roles is not None:
                    known = senders >= 0
                    codes[known] = self._roles[senders[known]]
                for v, t, sender, code in zip(
                    nodes.tolist(), tokens.tolist(), senders.tolist(), codes.tolist()
                ):
                    self.causal.record_learn(v, t, r, sender, SEND_ROLES[code])
                self._prev |= new
            else:
                self.recorder.end_round(new, self._prev & ~bits)
                self._prev[...] = bits
        stream = self.stream
        if self._coverage is not None:
            self._coverage.append(coverage)
            self._complete.append(nodes_complete)
            if stream is not None and stream.wants_round(r):
                stream.on_round(
                    self.table.round_event(r, coverage, nodes_complete)
                )
        lost, self._lost = metrics.lost_deliveries - self._lost, metrics.lost_deliveries
        if not self.monitors:
            return
        messages, tokens = self.table.row_totals(r)
        self._messages += messages
        self._tokens += tokens
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
            tokens_sent=self._tokens,
            messages_sent=self._messages,
        )
        for monitor in self.monitors:
            before = len(monitor.violations)
            monitor.observe(view)
            if stream is not None:
                for violation in monitor.violations[before:]:
                    stream.alert(violation)

    def close_saturated(
        self,
        spans: Sequence[Tuple[int, int, object]],
        groups: Sequence[SendGroup],
        coverage: int,
        nodes_complete: int,
        metrics,
    ) -> None:
        """Open, bill and close every remaining round of a saturated run
        at once, in place of :meth:`open_round`, the billing and
        :meth:`close_round` per round.

        ``spans`` holds ``(start, stop, arrs)``, in order: rounds
        ``start .. stop-1`` have the hierarchy of ``arrs`` (a
        :class:`~repro.sim.topology.SnapshotArrays`), and their sends are
        the :class:`SendGroup`\\ s ``groups``.  Every round ends
        with ``coverage`` and ``nodes_complete`` and gains and loses
        nothing, so the causal trace has nothing to add.  Not for
        monitored runs, whose monitors see each round.
        """
        first = self.table.rounds
        for start, stop, arrs in spans:
            self.table.open(arrs.roles, stop - start)
        self.table.bill_saturated(groups, self.n, self.k)
        if self.recorder is not None:
            self.recorder.saturated_rounds(spans, groups)
        end = self.table.rounds
        metrics.end_round(coverage, end - first)
        if self._coverage is None:
            return
        self._coverage.extend(repeat(coverage, end - first))
        self._complete.extend(repeat(nodes_complete, end - first))
        stream = self.stream
        if stream is not None:
            rounds = [r for r in range(first, end) if stream.wants_round(r)]
            for event in self.table.round_events(rounds, coverage, nodes_complete):
                stream.on_round(event)

    def finish(
        self, metrics, complete: bool
    ) -> Tuple[
        Optional[RunTimeline], Optional[CausalTrace],
        Optional[RunRecording], Optional[List[Violation]],
    ]:
        """Settle ``metrics``' send counters from the send-count table and
        return ``(timeline, causal trace, recording, violations)`` of the
        run, the timeline built from the table with the profile folded
        in."""
        self.table.settle(metrics)
        rounds = metrics.rounds
        timeline = None
        if self._coverage is not None:
            timeline = self.table.timeline(self._coverage, self._complete)
            if self.profiler is not None:
                timeline.profile.update(self.profiler.seconds)
        violations = None
        if self.monitors:
            for monitor in self.monitors:
                monitor.finish(rounds, complete)
            violations = [v for m in self.monitors for v in m.violations]
        recording = self.recorder.recording if self.recorder is not None else None
        return timeline, self.causal, recording, violations

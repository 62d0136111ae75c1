"""Deterministic record/replay: compact per-round recordings of a run.

Recorded at ``obs="record"``.  A :class:`RunRecording` is the execution's
*diffable ground truth*: for every round it stores the knowledge-set
**deltas** (which tokens each node gained or lost), the round's hierarchy
assignment (roles + cluster heads), and every transmitted message in a
canonical order.  From the initial assignment plus the deltas the full
simulation state at any round ``r`` can be reconstructed exactly
(:meth:`RunRecording.state_at` — time travel), which is the natural
debugging primitive for the paper's round-by-round induction arguments
(Theorems 1–4 reason over (T, L)-HiNet stability windows one round at a
time).

A recording is the integer columns of :data:`COLUMNS`, in memory, in the
result cache's column block and in ``repro record --out`` files.  Per
round: ``hier`` (an index into the run's distinct hierarchies, each
stored once in ``roles``/``heads``) and the row counts ``messages``,
``gains`` and ``losses``; per message ``sender``, ``dest`` (``-1`` for
a broadcast), ``cost`` and ``msg_bits``; per gained or lost row a node
and its bits: a token set as ``ceil(k/32)`` signed 32-bit words, bit
``b`` of word ``j`` for token ``32·j + b``.  :class:`RoundDelta` and
:class:`MessageRecord` are the read view, built only when rounds are
read.

Both engines (:mod:`repro.sim.engine` and :mod:`repro.sim.columnar`)
record through the same :class:`RunRecorder`, fed by one
:class:`~repro.obs.observer.RunObserver`, which canonicalises everything
order-dependent: token sets read back sorted, per-round messages are
sorted by ``(sender, kind, dest, tokens, cost)`` and deltas come in node
order.  Recordings are therefore part of the fastpath⇄reference
*bit-identity* guarantee (asserted registry-wide in
``tests/test_recorder.py``), and they ride the on-disk result cache
(``obs="record"`` joins the cache key; see the policy table in
:mod:`repro.experiments.cache`).

Downstream consumers: :mod:`repro.obs.diff` aligns two recordings
round-by-round and bisects to the first divergence; :func:`to_chrome_trace`
exports a recording (plus optional timeline/profile) as Chrome
trace-event JSON viewable in ``chrome://tracing`` or ``ui.perfetto.dev``;
the CLI surface is ``repro record`` / ``repro replay`` / ``repro diff``.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple,
    Optional, Sequence, Tuple,
)

import numpy as np

__all__ = [
    "COLUMNS", "MessageRecord", "RoundDelta", "RunRecorder", "RunRecording",
    "rows_tokens", "to_chrome_trace",
]

#: ``MessageRecord.kind`` values: local broadcast / addressed unicast.
BROADCAST_KIND = "b"
UNICAST_KIND = "u"

#: What a saturated round's sender sends other than one token id (see
#: :class:`~repro.obs.observer.SendGroup`): nothing, or its whole set.
SILENT, WHOLE_SET = -1, -2

#: Each row table's columns, bits last; a table's name is also its
#: per-round row-count column.
_TABLES = {
    "messages": ("sender", "dest", "cost", "msg_bits"),
    "gains": ("gain_node", "gain_bits"),
    "losses": ("lost_node", "lost_bits"),
}

#: A distinct hierarchy's two parts: their length (``-1`` for ``None``)
#: and value columns, role codes and head ids.
_HIERARCHY = (("roles_len", "roles"), ("heads_len", "heads"))

#: The recording's columns (``int32`` arrays), in block order.
COLUMNS = ("hier", *_TABLES, *chain.from_iterable(_TABLES.values()),
           *chain.from_iterable(_HIERARCHY))

_EMPTY = np.zeros(0, dtype=np.int64)
_LETTERS = np.frombuffer(b"hgm", dtype=np.uint8)  # role letter by code
_CODES = np.full(256, -1, dtype=np.int32)  # role code by letter
_CODES[_LETTERS] = np.arange(len(_LETTERS))


def token_csr(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row token counts and all rows' sorted tokens, concatenated, of
    a bit-matrix of unsigned words (bit ``b`` of word ``j`` is token
    ``j·width + b``)."""
    if rows.shape[0] == 0:
        return _EMPTY, _EMPTY
    rows = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder("<"))
    bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
    # a bool view takes numpy's fast nonzero path (unpacked bits are 0/1)
    tokens = np.flatnonzero(bits.view(bool)) % bits.shape[1]
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64), tokens


def _split(values: Sequence, lengths: Iterable[int]) -> list:
    """``values`` cut into consecutive runs of ``lengths``."""
    bounds = list(accumulate(lengths, initial=0))
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


def rows_tokens(rows: np.ndarray) -> List[List[int]]:
    """Decode a bit-matrix to per-row sorted token lists.
    Each list is a slice of :func:`token_csr`'s one flat token list."""
    lengths, tokens = token_csr(rows)
    return _split(tokens.tolist(), lengths.tolist())


def _pack(token_rows: Sequence[Iterable[int]], words: int) -> np.ndarray:
    """Token collections as an ``(m, words)`` uint32 bit-matrix."""
    lengths = [len(toks) for toks in token_rows]
    flat = np.fromiter(chain.from_iterable(token_rows), dtype=np.int64)
    if flat.size and not 0 <= flat.min() <= flat.max() < 32 * words:
        raise ValueError(f"token outside 0..{32 * words - 1}")
    out = np.zeros((len(lengths), words), dtype=np.uint32)
    rows = np.repeat(np.arange(len(lengths)), lengths)
    np.bitwise_or.at(out, (rows, flat >> 5), (1 << (flat & 31)).astype(np.uint32))
    return out


def _digest(*parts: Optional[np.ndarray]) -> bytes:
    """SHA-256 of int32 parts, each with its length (``-1`` for ``None``)."""
    digest = hashlib.sha256()
    for part in parts:
        values = np.asarray(() if part is None else part, dtype=np.int32)
        digest.update(np.int64(-1 if part is None else len(part)).tobytes() + values.tobytes())
    return digest.digest()


def _bit_column(bits: np.ndarray) -> np.ndarray:
    """A uint32 bit-matrix as a bits column: signed words, row by row."""
    return bits.view(np.int32).ravel()


class MessageRecord(NamedTuple):
    """One transmission, in the recording's canonical encoding.

    ``kind`` is ``"b"`` (broadcast; ``dest == -1``) or ``"u"`` (unicast to
    ``dest``).  ``tokens`` is the sorted tuple of carried token ids and
    ``cost`` the transmission's token-equivalents (payload-carrying
    protocols like network coding can cost more than ``len(tokens)``).
    """

    sender: int
    kind: str
    dest: int
    tokens: Tuple[int, ...]
    cost: int


@dataclass(frozen=True)
class RoundDelta:
    """Everything that changed in one round, canonically ordered.

    Attributes
    ----------
    gained, lost:
        ``((node, (token, …)), …)`` — per-node token-set deltas at the end
        of the round, ascending node order, sorted token tuples.  Absorb-
        only protocols never populate ``lost``; it exists so arbitrary
        reference algorithms (and injected faults) still round-trip.
    messages:
        Every transmission of the round as :class:`MessageRecord` rows,
        sorted by ``(sender, kind, dest, tokens, cost)``.  Sends are
        recorded at *transmission* time (dropped unicasts and lossy
        deliveries still appear — the send was paid for).
    roles:
        The round's role assignment packed as a string of ``h``/``g``/``m``
        letters (``None`` for flat scenarios).
    head_of:
        Per-node cluster head id with ``-1`` for unaffiliated
        (``None`` for flat scenarios).
    """

    gained: Tuple[Tuple[int, Tuple[int, ...]], ...]
    lost: Tuple[Tuple[int, Tuple[int, ...]], ...]
    messages: Tuple[MessageRecord, ...]
    roles: Optional[str]
    head_of: Optional[Tuple[int, ...]]


class RunRecording:
    """A deterministic, replayable record of one engine run.

    Attributes
    ----------
    n, k:
        Instance dimensions.
    initial:
        Node → sorted token tuple before round 0 (nodes starting empty
        are omitted) — the state that round-0 deltas apply to.
    meta:
        Presentation metadata stamped by
        :func:`repro.experiments.runner.execute` (algorithm, scenario,
        engine, ``phase_length``) and the CLI.  Excluded from equality:
        two bit-identical executions recorded by different engines must
        compare equal.

    Hand-built ``rounds`` are :class:`RoundDelta` objects.
    """

    __hash__ = None  # mutable

    def __init__(self, n: int, k: int, initial: Optional[Mapping[int, Tuple[int, ...]]] = None,
                 rounds: Iterable[RoundDelta] = (), meta: Optional[Mapping[str, Any]] = None) -> None:
        self.n, self.k = n, k
        self.initial: Dict[int, Tuple[int, ...]] = dict(initial or {})
        self.meta: Dict[str, Any] = dict(meta or {})
        self._words = max(1, (k + 31) // 32)
        self._set_rounds(rounds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunRecording):
            return NotImplemented
        return (self.n, self.k, self.initial) == (other.n, other.k, other.initial) and all(
            np.array_equal(self._col(c), other._col(c)) for c in COLUMNS)

    # -- writes ------------------------------------------------------------

    def _set_rounds(self, rounds: Iterable[RoundDelta]) -> None:
        # hierarchy index by content digest (None: not built since read)
        self._index: Optional[Dict[bytes, int]] = {}
        # per column, the arrays appended since it was last read
        self._chunks: Dict[str, List[np.ndarray]] = {c: [] for c in COLUMNS}
        for delta in rounds:
            self._append_delta(delta)

    def _hierarchy(self, roles: Optional[np.ndarray], head_of: Optional[np.ndarray]) -> int:
        """Index of the hierarchy with these role codes and head ids (each
        ``None`` when absent), appended on first use.  Equal hierarchies
        share one index: they are keyed by a SHA-256 of their content."""
        if self._index is None:
            self._index = {_digest(*h): i for i, h in enumerate(self._hierarchies())}
        key = _digest(roles, head_of)
        if key not in self._index:
            self._index[key] = len(self._index)
            for (length, values), part in zip(_HIERARCHY, (roles, head_of)):
                self._chunks[length].append(np.array([-1 if part is None else len(part)], np.int32))
                self._chunks[values].append(np.asarray(() if part is None else part, np.int32))
        return self._index[key]

    def _hierarchies(self) -> List[Tuple[Optional[np.ndarray], ...]]:
        """Each distinct hierarchy's role codes and head ids (``None`` when
        absent), in index order."""
        parts = []
        for length, values in _HIERARCHY:
            sizes = self._col(length).tolist()
            runs = _split(self._col(values), [max(size, 0) for size in sizes])
            parts.append([None if size < 0 else run for size, run in zip(sizes, runs)])
        return list(zip(*parts))

    def _append_rounds(self, hier: Sequence[int], *tables: Sequence[Sequence[int]]) -> None:
        """Append rounds: their hierarchy indices and, per table, the
        rounds' row counts followed by the table's columns."""
        self._chunks["hier"].append(np.asarray(hier, dtype=np.int32))
        for (table, names), (counts, *columns) in zip(_TABLES.items(), tables):
            self._chunks[table].append(np.asarray(counts, dtype=np.int32))
            for name, values in zip(names, columns):
                self._chunks[name].append(np.asarray(values, dtype=np.int32))

    def _append_delta(self, delta: RoundDelta) -> None:
        msgs, words, roles = delta.messages, self._words, delta.roles
        if roles is not None:
            roles = _CODES[np.frombuffer(roles.encode(), dtype=np.uint8)]
        if any(m.kind != (UNICAST_KIND if m.dest >= 0 else BROADCAST_KIND) for m in msgs) or (
            roles is not None and (roles < 0).any()
        ):
            raise ValueError("a message's kind disagrees with its dest, or a role is not h/g/m")
        self._append_rounds(
            [self._hierarchy(roles, delta.head_of)],
            ([len(msgs)], [m.sender for m in msgs], [m.dest for m in msgs],
             [m.cost for m in msgs], _bit_column(_pack([m.tokens for m in msgs], words))),
            *(([len(rows)], [v for v, _ in rows], _bit_column(_pack([t for _, t in rows], words)))
              for rows in (delta.gained, delta.lost)),
        )

    # -- basic views -------------------------------------------------------

    def _col(self, name: str) -> np.ndarray:
        chunks = self._chunks[name]
        if len(chunks) != 1:
            chunks[:] = [np.concatenate([np.zeros(0, np.int32), *chunks])]
        return chunks[0]

    def _bits(self, column: np.ndarray, a: int = 0, b: Optional[int] = None) -> np.ndarray:
        """Rows ``a .. b-1`` of a bits column as a uint32 bit-matrix."""
        w = self._words
        return column[a * w:None if b is None else b * w].astype(np.uint32).reshape(-1, w)

    def _rows(self, table: str, lo: int, hi: int):
        """Rounds ``lo .. hi-1`` of ``table``: row counts, then each column
        as a list (bits as token tuples)."""
        counts = self._col(table)
        a = int(counts[:lo].sum())
        per_round = counts[lo:hi].tolist()
        b = a + sum(per_round)
        *fields, bits = _TABLES[table]
        return (per_round, *(self._col(f)[a:b].tolist() for f in fields),
                list(map(tuple, rows_tokens(self._bits(self._col(bits), a, b)))))

    @property
    def rounds_recorded(self) -> int:
        """Number of rounds in the recording."""
        return len(self._col("hier"))

    @property
    def rounds(self) -> List[RoundDelta]:
        """Every round, decoded on each access; item assignment and
        ``append`` write back to the recording."""
        return _Rounds(self)

    def round_delta(self, r: int) -> RoundDelta:
        """The :class:`RoundDelta` of round ``r`` (0-based)."""
        if not 0 <= r < self.rounds_recorded:
            raise IndexError(
                f"round {r} outside recorded range 0..{self.rounds_recorded - 1}"
            )
        return next(self._deltas(r, r + 1))

    def _deltas(self, lo: int, hi: int) -> Iterator[RoundDelta]:
        """Decode rounds ``lo .. hi-1`` into the read view."""
        m_counts, senders, dests, costs, tokens = self._rows("messages", lo, hi)
        kinds = [BROADCAST_KIND if d < 0 else UNICAST_KIND for d in dests]
        messages = list(map(MessageRecord, senders, kinds, dests, tokens, costs))
        g_counts, *gained = self._rows("gains", lo, hi)
        l_counts, *lost = self._rows("losses", lo, hi)
        gained, lost = list(zip(*gained)), list(zip(*lost))
        hier, every = self._col("hier")[lo:hi].tolist(), self._hierarchies()
        hierarchies = {h: (None if every[h][0] is None else _LETTERS[every[h][0]].tobytes().decode(),
                           None if every[h][1] is None else tuple(every[h][1].tolist()))
                       for h in set(hier)}
        m = g = l = 0
        for h, cm, cg, cl in zip(hier, m_counts, g_counts, l_counts):
            roles, head_of = hierarchies[h]
            yield RoundDelta(gained=tuple(gained[g:g + cg]), lost=tuple(lost[l:l + cl]),
                             messages=tuple(messages[m:m + cm]), roles=roles, head_of=head_of)
            m, g, l = m + cm, g + cg, l + cl

    # -- time travel -------------------------------------------------------

    def _replay(self, stop: int, node: Optional[int] = None) -> Iterator[np.ndarray]:
        """Yield the token bits of every node, or of ``node`` only (read
        from its own rows), initially and after each round before
        ``stop``: one matrix, updated in place."""
        nodes = range(self.n) if node is None else [node]
        state = _pack([self.initial.get(v, ()) for v in nodes], self._words)
        yield state
        changes = []
        for table in ("gains", "losses"):
            ids_name, bits_name = _TABLES[table]
            counts = self._col(table)[:stop]
            ids = self._col(ids_name)[:int(counts.sum())]
            rows = np.arange(len(ids)) if node is None else np.flatnonzero(ids == node)
            ends = np.searchsorted(rows, np.cumsum(counts)).tolist()
            changes.append((ids[rows] - (node or 0),
                            self._bits(self._col(bits_name), 0, len(ids))[rows], ends))
        (g_ids, g_bits, g_ends), (l_ids, l_bits, l_ends) = changes
        for g, g_end, l, l_end in zip([0, *g_ends], g_ends, [0, *l_ends], l_ends):
            np.bitwise_or.at(state, g_ids[g:g_end], g_bits[g:g_end])
            np.bitwise_and.at(state, l_ids[l:l_end], ~l_bits[l:l_end])
            yield state

    def _state(self, r: int, node: Optional[int] = None) -> np.ndarray:
        if not -1 <= r < self.rounds_recorded:
            raise IndexError(
                f"round {r} outside recorded range -1..{self.rounds_recorded - 1}"
            )
        for state in self._replay(r + 1, node):
            pass
        return state

    def states(self) -> Iterator[Tuple[int, Dict[int, FrozenSet[int]]]]:
        """Yield ``(r, state)`` for ``r = -1, 0, …`` — the knowledge of
        every node at the end of each round (``-1`` is the initial state).

        Each yielded state is an independent snapshot (mutating it does
        not corrupt the replay).
        """
        for r, state in enumerate(self._replay(self.rounds_recorded), -1):
            yield r, dict(enumerate(map(frozenset, rows_tokens(state))))

    def state_at(self, r: int) -> Dict[int, FrozenSet[int]]:
        """Reconstruct every node's token set at the end of round ``r``.

        ``r == -1`` returns the initial assignment; the final recorded
        round reproduces ``RunResult.outputs`` exactly.
        """
        return dict(enumerate(map(frozenset, rows_tokens(self._state(r)))))

    def node_state(self, r: int, node: int) -> FrozenSet[int]:
        """Token set of ``node`` at the end of round ``r`` (``-1`` initial)."""
        if not 0 <= node < self.n:
            raise IndexError(f"node {node} outside 0..{self.n - 1}")
        return frozenset(rows_tokens(self._state(r, node))[0])

    def coverage_at(self, r: int) -> int:
        """Global (node, token) pairs known at the end of round ``r``."""
        return int(np.bitwise_count(self._state(r)).sum())

    # -- fingerprints (divergence bisection) -------------------------------

    def prefix_digests(self) -> List[str]:
        """Running content digests, one per round.

        ``prefix_digests()[r]`` covers the initial assignment and every
        delta up to and including round ``r``, so two recordings' digest
        lists agree exactly up to the first diverging round — the
        monotone predicate :func:`repro.obs.diff.diff_recordings` binary-
        searches over.
        """
        h = hashlib.sha256(
            repr((self.n, self.k, sorted(self.initial.items()))).encode()
        )
        out: List[str] = []
        for delta in self._deltas(0, self.rounds_recorded):
            h.update(repr(delta).encode())
            out.append(h.hexdigest())
        return out

    def fingerprint(self) -> str:
        """Digest of the whole recording (initial state + every round)."""
        digests = self.prefix_digests()
        if digests:
            return digests[-1]
        return hashlib.sha256(
            repr((self.n, self.k, sorted(self.initial.items()))).encode()
        ).hexdigest()

    # -- columns -----------------------------------------------------------

    def columns(self) -> List[Tuple[str, Sequence[int]]]:
        """Every column a cache entry or recording file stores, named
        ``recording.<name>``: :data:`COLUMNS`, then the initial assignment
        as ``initial_node`` and ``initial_bits``."""
        out = [(name, self._col(name)) for name in COLUMNS]
        nodes = sorted(self.initial)
        bits = _pack([self.initial[v] for v in nodes], self._words)
        out += [("initial_node", nodes), ("initial_bits", _bit_column(bits))]
        return [("recording." + name, values) for name, values in out]

    @classmethod
    def from_columns(cls, n: int, k: int, columns: Mapping[str, np.ndarray],
                     meta: Optional[Mapping[str, Any]] = None) -> "RunRecording":
        """Rebuild a recording from its :meth:`columns`, kept as arrays.
        Raises ``KeyError`` on a missing column and ``ValueError`` when a
        row table disagrees with its counts."""
        col = {name[len("recording."):]: values for name, values in columns.items()
               if name.startswith("recording.")}
        recording = cls(n, k, meta=meta)
        for table, (*fields, bits) in _TABLES.items():
            rows = int(col[table].sum())
            if len(col[table]) != len(col["hier"]) or any(
                len(col[f]) != rows for f in fields
            ) or len(col[bits]) != rows * recording._words:
                raise ValueError(f"recording {table} columns disagree in length")
        recording._chunks = {name: [col[name]] for name in COLUMNS}
        recording._index = None
        initial = rows_tokens(recording._bits(col["initial_bits"]))
        recording.initial = dict(zip(col["initial_node"].tolist(), map(tuple, initial)))
        return recording

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self, timeline=None) -> Dict[str, Any]:
        """Export as Chrome trace-event JSON (see :func:`to_chrome_trace`)."""
        return to_chrome_trace(self, timeline=timeline)


class _Rounds(list):
    """A recording's rounds, decoded; item assignment and :meth:`append`
    write back to the recording."""

    def __init__(self, recording: RunRecording) -> None:
        super().__init__(recording._deltas(0, recording.rounds_recorded))
        self._recording = recording

    def __setitem__(self, index, delta) -> None:
        super().__setitem__(index, delta)
        self._recording._set_rounds(self)

    def append(self, delta: RoundDelta) -> None:
        super().append(delta)
        self._recording._append_delta(delta)


class RunRecorder:
    """Incremental builder both engines feed at ``obs="record"``.

    :class:`~repro.obs.observer.RunObserver` calls
    :meth:`begin_round` with the round's hierarchy arrays,
    :meth:`record_sends` with the round's message log, and
    :meth:`end_round` with the round's knowledge deltas, which go
    straight into :attr:`recording`'s columns; :meth:`saturated_rounds`
    appends a run of saturated rounds at once.  All canonicalisation
    (sorting, bit packing) happens here so the engines stay order-free.
    """

    def __init__(self, n: int, k: int, initial: Mapping[int, FrozenSet[int]]) -> None:
        self.recording = RunRecording(n, k, {
            v: tuple(sorted(toks)) for v, toks in sorted(initial.items()) if toks
        })
        self._memo: Dict[Tuple[int, int], Tuple[Any, Any, int]] = {}
        self._hier = 0
        self._log: List[Tuple[np.ndarray, ...]] = []

    def begin_round(self, roles: Optional[np.ndarray], head_of: Optional[np.ndarray]) -> None:
        """Open a round with its hierarchy: the role-code and head-id
        (``-1`` unaffiliated) arrays, each ``None`` on a flat round.
        Memoized by array identity (the arrays are kept, so their ids
        stay theirs): the rounds of a phase share one lookup."""
        key = (id(roles), id(head_of))
        if key not in self._memo:
            self._memo[key] = (roles, head_of, self.recording._hierarchy(roles, head_of))
        self._hier = self._memo[key][2]
        self._log = []

    def record_sends(self, senders: np.ndarray, dests: np.ndarray,
                     payload: np.ndarray, costs: np.ndarray) -> None:
        """Record transmissions: sender, destination (``-1`` broadcast),
        packed ``uint64`` payload and cost arrays; zero-cost ones are free."""
        self._log.append((senders, dests, payload, costs))

    def end_round(self, gained: Optional[np.ndarray] = None,
                  lost: Optional[np.ndarray] = None) -> None:
        """Close the round with the ``(n, W)`` uint64 bit-matrices of the
        tokens each node gained and lost (``None`` for none)."""
        messages = (_EMPTY,) * 4
        if self._log:
            senders, dests, payload, costs = map(np.concatenate, zip(*self._log))
            keep = np.flatnonzero(costs != 0)
            messages = _canonical(senders[keep], dests[keep],
                                  self._halves(payload[keep]), costs[keep])
        deltas = [(_EMPTY, _EMPTY)] * 2
        for i, rows in enumerate((gained, lost)):
            if rows is not None:
                nodes = np.flatnonzero(rows.any(axis=1))
                deltas[i] = (nodes, _bit_column(self._halves(rows[nodes])))
        self.recording._append_rounds(
            [self._hier], ([len(messages[0])], *messages),
            *(([len(nodes)], nodes, bits) for nodes, bits in deltas),
        )
        self._log = []

    def saturated_rounds(self, spans: Sequence[Tuple[int, int, Any]],
                         groups: Sequence[Any]) -> None:
        """Append saturated rounds, in which every node holds every
        token: ``spans`` holds ``(start, stop, arrs)``, in order, rounds
        ``start .. stop-1`` sharing the hierarchy of ``arrs``, and
        ``groups`` (:class:`~repro.obs.observer.SendGroup`\\ s) are their
        sends.  No deltas; each node sends at most once a round, so
        ascending sender order is canonical."""
        starts = [start for start, _, _ in spans]
        reaching: List[List[Any]] = [[] for _ in spans]  # the groups of each span
        for g in groups:
            for j in range(bisect_right(starts, g.start) - 1,
                           bisect_left(starts, g.start + len(g.tokens))):
                reaching[j].append(g)
        for (start, stop, arrs), some in zip(spans, reaching):
            self.begin_round(arrs.roles, arrs.head_of)
            self._span(arrs.roles, start, stop - start, some)

    def _span(self, roles: Optional[np.ndarray], start: int, rounds: int,
              groups: Sequence[Any]) -> None:
        """Append ``rounds`` saturated rounds from ``start`` with the open
        hierarchy, whose sends are those of ``groups`` in them."""
        k, words = self.recording.k, self.recording._words
        parts = []  # (nodes, dests, tokens of these rounds) per group
        for g in groups:
            lo, hi = max(start, g.start), min(start + rounds, g.start + len(g.tokens))
            tokens = np.full(rounds, SILENT)
            tokens[lo - start:hi - start] = g.tokens[lo - g.start:hi - g.start]
            nodes = g.nodes
            if nodes is None:
                chosen = np.zeros(len(_LETTERS), dtype=bool)
                chosen[list(g.roles)] = True
                nodes = (np.arange(self.recording.n) if roles is None
                         else np.flatnonzero(chosen[roles]))
            parts.append((nodes, np.full(len(nodes), -1) if g.dests is None else g.dests, tokens))
        none = np.zeros(rounds, dtype=np.int32)
        messages = (none, _EMPTY, _EMPTY, _EMPTY, _EMPTY)
        if parts:
            nodes, dests, tokens = zip(*parts)
            nodes = np.concatenate(nodes)
            order = np.argsort(nodes, kind="stable")
            label = np.repeat(np.arange(len(parts)), [len(v) for v in dests])[order]
            # round-major, then ascending sender: the canonical order
            tokens = np.stack(tokens)
            rnd, col = np.nonzero((tokens != SILENT).T[:, label])
            sent = tokens[label[col], rnd]
            bits = np.zeros((len(sent), words), dtype=np.uint32)
            one = np.flatnonzero(sent >= 0)
            bits[one, sent[one] >> 5] = np.left_shift(1, sent[one] & 31).astype(np.uint32)
            whole = sent == WHOLE_SET
            bits[whole] = _pack([range(k)], words)
            messages = (np.bincount(rnd, minlength=rounds), nodes[order][col],
                        np.concatenate(dests)[order][col], np.where(whole, k, 1), _bit_column(bits))
        self.recording._append_rounds(
            np.full(rounds, self._hier), messages, (none, _EMPTY, _EMPTY), (none, _EMPTY, _EMPTY),
        )

    def _halves(self, rows: np.ndarray) -> np.ndarray:
        """``(m, W)`` uint64 rows as the recording's uint32 bit rows."""
        halves = np.ascontiguousarray(rows, dtype="<u8").view("<u4")
        return halves[:, :self.recording._words]


def _canonical(senders: np.ndarray, dests: np.ndarray, bits: np.ndarray,
               costs: np.ndarray) -> Tuple[np.ndarray, ...]:
    """A round's messages as sender, dest, cost and bits columns in
    :class:`MessageRecord` order: dest ``-1`` (kind ``"b"``) sorts first,
    and token tuples compare as their rows padded with ``-1`` do."""
    lengths, tokens = token_csr(bits)
    pad = np.full((len(lengths), int(lengths.max(initial=0))), -1, dtype=np.int64)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    pad[np.repeat(np.arange(len(lengths)), lengths), np.arange(len(tokens)) - starts] = tokens
    order = np.lexsort((costs, *pad.T[::-1], dests, senders))
    return senders[order], dests[order], costs[order], _bit_column(bits[order])


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------

#: Microseconds of trace time one simulation round occupies.
ROUND_US = 1000

_PID = 1
_TID_ROUNDS = 1
_TID_PHASES = 2
_TID_LEARNS = 3
_TID_PROFILE = 4

_TRACK_NAMES = {
    _TID_ROUNDS: "rounds",
    _TID_PHASES: "phases",
    _TID_LEARNS: "first learns",
    _TID_PROFILE: "profile",
}


def to_chrome_trace(
    recording: Optional[RunRecording] = None,
    *,
    timeline=None,
    round_us: int = ROUND_US,
) -> Dict[str, Any]:
    """Encode a recording and/or timeline as Chrome trace-event JSON.

    The output dict (``{"traceEvents": […], "displayTimeUnit": "ms"}``)
    loads directly into ``chrome://tracing`` and `ui.perfetto.dev
    <https://ui.perfetto.dev>`_.  Simulation time is mapped linearly —
    one round is ``round_us`` microseconds of trace time:

    * every round is a complete slice (``ph="X"``) on the ``rounds``
      track, with the round's message/token/knowledge-delta counts in
      ``args``;
    * when the recording's ``meta`` carries a ``phase_length``, phases
      become slices on their own track (the paper's unit of analysis);
    * every (node, token) first-gain is an instant event (``ph="i"``) on
      the ``first learns`` track at its round's end;
    * a ``coverage`` counter (``ph="C"``) tracks the dissemination
      progress curve; with a ``timeline``, ``tokens_on_air`` too;
    * a ``timeline`` with profile sections (``obs="profile"``) adds the
      wall-clock sections as slices on a ``profile`` track (real
      milliseconds, laid end to end).

    ``traceEvents`` are sorted by ``ts`` and every event carries the
    required ``name``/``ph``/``ts``/``pid``/``tid`` keys — the shape
    ``tests/test_recorder.py`` validates.
    """
    if recording is None and timeline is None:
        raise ValueError("to_chrome_trace needs a recording and/or a timeline")
    events: List[Dict[str, Any]] = []

    def add(name: str, ph: str, ts: float, tid: int, **extra) -> None:
        event: Dict[str, Any] = {
            "name": name, "ph": ph, "ts": ts, "pid": _PID, "tid": tid,
        }
        event.update(extra)
        events.append(event)

    rounds = (
        recording.rounds_recorded
        if recording is not None
        else timeline.rounds
    )

    if recording is not None:
        coverage = sum(len(toks) for toks in recording.initial.values())
        for r, delta in enumerate(recording.rounds):
            gained_pairs = sum(len(toks) for _, toks in delta.gained)
            lost_pairs = sum(len(toks) for _, toks in delta.lost)
            coverage += gained_pairs - lost_pairs
            add(
                f"round {r}", "X", r * round_us, _TID_ROUNDS,
                dur=round_us,
                args={
                    "messages": len(delta.messages),
                    "tokens_sent": sum(m.cost for m in delta.messages),
                    "nodes_gaining": len(delta.gained),
                    "pairs_gained": gained_pairs,
                },
            )
            add(
                "coverage", "C", (r + 1) * round_us - 1, _TID_ROUNDS,
                args={"pairs": coverage},
            )
            for node, toks in delta.gained:
                for token in toks:
                    add(
                        f"learn t{token}@n{node}", "i",
                        (r + 1) * round_us - 1, _TID_LEARNS,
                        s="t",
                        args={"node": node, "token": token, "round": r},
                    )
        phase_length = recording.meta.get("phase_length")
        if isinstance(phase_length, int) and phase_length >= 1:
            for start in range(0, rounds, phase_length):
                stop = min(start + phase_length, rounds)
                add(
                    f"phase {start // phase_length}", "X",
                    start * round_us, _TID_PHASES,
                    dur=(stop - start) * round_us,
                    args={"rounds": f"{start}..{stop - 1}"},
                )
    elif timeline is not None:
        for r in range(timeline.rounds):
            add(
                f"round {r}", "X", r * round_us, _TID_ROUNDS,
                dur=round_us,
                args={
                    "messages": timeline.messages[r],
                    "tokens_sent": timeline.tokens[r],
                },
            )
            add(
                "coverage", "C", (r + 1) * round_us - 1, _TID_ROUNDS,
                args={"pairs": timeline.coverage[r]},
            )

    if timeline is not None and recording is not None:
        for r in range(min(timeline.rounds, rounds)):
            add(
                "tokens_on_air", "C", (r + 1) * round_us - 1, _TID_ROUNDS,
                args={"tokens": timeline.tokens[r]},
            )
    if timeline is not None and timeline.profile:
        cursor = 0.0
        for section, seconds in sorted(
            timeline.profile.items(), key=lambda kv: kv[1], reverse=True
        ):
            dur = seconds * 1e6
            add(section, "X", cursor, _TID_PROFILE, dur=dur)
            cursor += dur

    events.sort(key=lambda e: e["ts"])
    # metadata events name the tracks; ts 0 keeps the sort contract
    used_tids = {e["tid"] for e in events}
    metadata = [
        {
            "name": "thread_name", "ph": "M", "ts": 0, "pid": _PID,
            "tid": tid, "args": {"name": _TRACK_NAMES[tid]},
        }
        for tid in sorted(used_tids)
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"round_us": round_us, "rounds": rounds},
    }

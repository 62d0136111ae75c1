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

Engine-identical by construction
--------------------------------
Both engines (:mod:`repro.sim.engine` and :mod:`repro.sim.columnar`)
record through the same :class:`RunRecorder`, fed by one
:class:`~repro.obs.observer.RunObserver`, and everything order-dependent
is canonicalised:

* token sets are stored as **sorted** tuples;
* per-round messages are sorted by ``(sender, kind, dest, tokens,
  cost)`` — the reference engine emits per-node ``Message`` objects in
  node order while the fast path walks flat send-batch arrays, and the
  sort makes both streams identical;
* knowledge deltas are listed in ascending node order, each as a sorted
  token tuple.

Recordings are therefore part of the fastpath⇄reference *bit-identity*
guarantee (asserted registry-wide in ``tests/test_recorder.py``), and —
being fully deterministic — they ride the :mod:`repro.io` codecs and the
on-disk result cache (``obs="record"`` joins the cache key; see the
policy table in :mod:`repro.experiments.cache`).

Downstream consumers: :mod:`repro.obs.diff` aligns two recordings
round-by-round and bisects to the first divergence; :func:`to_chrome_trace`
exports a recording (plus optional timeline/profile) as Chrome
trace-event JSON viewable in ``chrome://tracing`` or ``ui.perfetto.dev``;
the CLI surface is ``repro record`` / ``repro replay`` / ``repro diff``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "MessageRecord",
    "RoundDelta",
    "RunRecorder",
    "RunRecording",
    "SPILL_ENV_VAR",
    "SpilledRounds",
    "to_chrome_trace",
]

#: When set to a directory path, every :class:`RunRecorder` without an
#: explicit ``spill_dir=`` streams its round deltas there instead of
#: holding them in memory (see :class:`SpilledRounds`).
SPILL_ENV_VAR = "REPRO_RECORD_SPILL"

#: ``MessageRecord.kind`` values: local broadcast / addressed unicast.
BROADCAST_KIND = "b"
UNICAST_KIND = "u"


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

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready round entry of a recording file (and a spill line).

        ``roles`` / ``head_of`` are omitted on flat scenarios.
        """
        entry: Dict[str, Any] = {
            "gained": [[v, list(toks)] for v, toks in self.gained],
            "lost": [[v, list(toks)] for v, toks in self.lost],
            "messages": [
                [m.sender, m.kind, m.dest, list(m.tokens), m.cost]
                for m in self.messages
            ],
        }
        if self.roles is not None:
            entry["roles"] = self.roles
        if self.head_of is not None:
            entry["head_of"] = list(self.head_of)
        return entry

    @classmethod
    def from_dict(cls, entry: Mapping[str, Any]) -> "RoundDelta":
        """Decode an entry written by :meth:`to_dict`."""
        return cls(
            gained=tuple(
                (int(v), tuple(int(t) for t in toks))
                for v, toks in entry["gained"]
            ),
            lost=tuple(
                (int(v), tuple(int(t) for t in toks))
                for v, toks in entry["lost"]
            ),
            messages=tuple(
                MessageRecord(
                    sender=int(sender),
                    kind=str(kind),
                    dest=int(dest),
                    tokens=tuple(int(t) for t in toks),
                    cost=int(cost),
                )
                for sender, kind, dest, toks, cost in entry["messages"]
            ),
            roles=entry.get("roles"),
            head_of=(
                tuple(int(h) for h in entry["head_of"])
                if entry.get("head_of") is not None
                else None
            ),
        )


class SpilledRounds:
    """A :class:`RoundDelta` sequence streamed to a JSONL file on disk.

    Drop-in replacement for the in-memory ``rounds`` list of a
    :class:`RunRecording`: the recorder appends one JSON line per round
    (O(1) resident memory regardless of run length — the fix for
    ``obs="record"`` at large n), and reads decode lazily by byte offset.
    Element-wise equality against any other round sequence (list or
    spilled) preserves the recording bit-identity contract, and pickling
    materialises to a plain list so recordings still cross process
    boundaries (``parallel_map`` workers).

    The backing file lives in the caller's ``spill_dir`` and is *not*
    deleted when the recording is garbage collected — the recording
    object remains readable for the directory's lifetime (point a
    ``tempfile.TemporaryDirectory`` or CI scratch dir at it).
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self._path = os.fspath(path)
        self._handle = open(self._path, "w+", encoding="utf-8")
        self._offsets: List[int] = []
        self._dirty = False

    # -- write side (recorder) ---------------------------------------------

    def append(self, delta: RoundDelta) -> None:
        handle = self._handle
        handle.seek(0, os.SEEK_END)
        self._offsets.append(handle.tell())
        json.dump(delta.to_dict(), handle,
                  separators=(",", ":"))
        handle.write("\n")
        self._dirty = True

    # -- read side ----------------------------------------------------------

    def _read_at(self, offset: int) -> RoundDelta:
        if self._dirty:
            self._handle.flush()
            self._dirty = False
        self._handle.seek(offset)
        return RoundDelta.from_dict(json.loads(self._handle.readline()))

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._read_at(off) for off in self._offsets[index]]
        return self._read_at(self._offsets[index])

    def __iter__(self) -> Iterator[RoundDelta]:
        for offset in list(self._offsets):
            yield self._read_at(offset)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SpilledRounds, list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # mutable sequence

    def __repr__(self) -> str:
        return f"SpilledRounds({len(self)} rounds @ {self._path!r})"

    def __reduce__(self):
        # pickle as a plain list: the file handle does not cross processes
        return (list, (list(self),))


@dataclass
class RunRecording:
    """A deterministic, replayable record of one engine run.

    Attributes
    ----------
    n, k:
        Instance dimensions.
    initial:
        Node → sorted token tuple before round 0 (nodes starting empty
        are omitted) — the state that round-0 deltas apply to.
    rounds:
        One :class:`RoundDelta` per executed round — a plain list, or a
        :class:`SpilledRounds` sequence when the recorder streamed to
        disk (element-wise equal either way).
    meta:
        Presentation metadata stamped by
        :func:`repro.experiments.runner.execute` (algorithm, scenario,
        engine, ``phase_length``) and the CLI.  Excluded from equality:
        two bit-identical executions recorded by different engines must
        compare equal.
    """

    n: int
    k: int
    initial: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    rounds: List[RoundDelta] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict, compare=False)

    # -- basic views -------------------------------------------------------

    @property
    def rounds_recorded(self) -> int:
        """Number of rounds in the recording."""
        return len(self.rounds)

    def round_delta(self, r: int) -> RoundDelta:
        """The :class:`RoundDelta` of round ``r`` (0-based)."""
        if not 0 <= r < len(self.rounds):
            raise IndexError(
                f"round {r} outside recorded range 0..{len(self.rounds) - 1}"
            )
        return self.rounds[r]

    # -- time travel -------------------------------------------------------

    def states(self) -> Iterator[Tuple[int, Dict[int, FrozenSet[int]]]]:
        """Yield ``(r, state)`` for ``r = -1, 0, …`` — the knowledge of
        every node at the end of each round (``-1`` is the initial state).

        Each yielded state is an independent snapshot (mutating it does
        not corrupt the replay).
        """
        state: Dict[int, set] = {
            v: set(self.initial.get(v, ())) for v in range(self.n)
        }
        yield -1, {v: frozenset(toks) for v, toks in state.items()}
        for r, delta in enumerate(self.rounds):
            for node, toks in delta.gained:
                state[node].update(toks)
            for node, toks in delta.lost:
                state[node].difference_update(toks)
            yield r, {v: frozenset(toks) for v, toks in state.items()}

    def state_at(self, r: int) -> Dict[int, FrozenSet[int]]:
        """Reconstruct every node's token set at the end of round ``r``.

        ``r == -1`` returns the initial assignment; the final recorded
        round reproduces ``RunResult.outputs`` exactly.
        """
        if not -1 <= r < len(self.rounds):
            raise IndexError(
                f"round {r} outside recorded range -1..{len(self.rounds) - 1}"
            )
        for round_index, state in self.states():
            if round_index == r:
                return state
        raise AssertionError("unreachable")  # pragma: no cover

    def node_state(self, r: int, node: int) -> FrozenSet[int]:
        """Token set of ``node`` at the end of round ``r`` (``-1`` initial)."""
        if not 0 <= node < self.n:
            raise IndexError(f"node {node} outside 0..{self.n - 1}")
        if not -1 <= r < len(self.rounds):
            raise IndexError(
                f"round {r} outside recorded range -1..{len(self.rounds) - 1}"
            )
        toks = set(self.initial.get(node, ()))
        for delta in self.rounds[: r + 1]:
            for v, gained in delta.gained:
                if v == node:
                    toks.update(gained)
            for v, lost in delta.lost:
                if v == node:
                    toks.difference_update(lost)
        return frozenset(toks)

    def coverage_at(self, r: int) -> int:
        """Global (node, token) pairs known at the end of round ``r``."""
        return sum(len(toks) for toks in self.state_at(r).values())

    # -- fingerprints (divergence bisection) -------------------------------

    def round_digest(self, r: int) -> str:
        """Content digest of round ``r``'s delta alone."""
        return hashlib.sha256(repr(self.rounds[r]).encode()).hexdigest()

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
        for delta in self.rounds:
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

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self, timeline=None) -> Dict[str, Any]:
        """Export as Chrome trace-event JSON (see :func:`to_chrome_trace`)."""
        return to_chrome_trace(self, timeline=timeline)


class RunRecorder:
    """Incremental builder both engines feed at ``obs="record"``.

    :class:`~repro.obs.observer.RunObserver` calls
    :meth:`begin_round_packed` with the round's packed hierarchy,
    :meth:`record_sends` with the round's non-empty transmissions, and
    :meth:`end_round` with the round's knowledge deltas; :meth:`finish`
    packages the :class:`RunRecording`.  All canonicalisation (sorting,
    tuple packing) happens here so the engines stay order-free.

    ``spill_dir`` (or the :data:`SPILL_ENV_VAR` environment variable)
    streams round deltas to a JSONL file in that directory instead of
    accumulating them in memory — identical recording content, O(1)
    resident growth (see :class:`SpilledRounds`).
    """

    def __init__(
        self,
        n: int,
        k: int,
        initial: Mapping[int, FrozenSet[int]],
        spill_dir: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        self.recording = RunRecording(
            n=n,
            k=k,
            initial={
                v: tuple(sorted(toks))
                for v, toks in sorted(initial.items())
                if toks
            },
        )
        if spill_dir is None:
            spill_dir = os.environ.get(SPILL_ENV_VAR, "").strip() or None
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            fd, path = tempfile.mkstemp(
                prefix="recording-", suffix=".jsonl", dir=os.fspath(spill_dir)
            )
            os.close(fd)
            self.recording.rounds = SpilledRounds(path)
        self._messages: List[MessageRecord] = []
        self._roles: Optional[str] = None
        self._head_of: Optional[Tuple[int, ...]] = None

    def begin_round_packed(
        self,
        roles: Optional[str],
        head_of: Optional[Tuple[int, ...]],
    ) -> None:
        """Open a round with its hierarchy in the recording encoding.

        ``roles`` is the ``h``/``g``/``m`` letter string (``None`` flat)
        and ``head_of`` the per-node head-id tuple with ``-1`` for
        unaffiliated (``None`` flat).
        """
        self._messages = []
        self._roles = roles
        self._head_of = head_of

    def record_sends(
        self,
        senders: Sequence[int],
        dests: Sequence[int],
        tokens: Iterable[Sequence[int]],
        costs: Sequence[int],
    ) -> None:
        """Record transmissions given as parallel columns of ints: sender,
        destination (``-1`` for a broadcast), sorted tokens and cost."""
        self._messages.extend(map(
            MessageRecord,
            senders,
            ["b" if dest < 0 else "u" for dest in dests],
            dests,
            map(tuple, tokens),
            costs,
        ))

    def end_round(
        self,
        gained: Iterable[Tuple[int, Iterable[int]]],
        lost: Iterable[Tuple[int, Iterable[int]]] = (),
    ) -> None:
        """Close the round with its end-of-round knowledge deltas."""
        self.recording.rounds.append(
            RoundDelta(
                gained=tuple(
                    (int(v), tuple(sorted(toks)))
                    for v, toks in sorted(gained)
                ),
                lost=tuple(
                    (int(v), tuple(sorted(toks))) for v, toks in sorted(lost)
                ),
                messages=tuple(sorted(self._messages)),
                roles=self._roles,
                head_of=self._head_of,
            )
        )
        self._messages = []

    def finish(self) -> RunRecording:
        """The completed recording."""
        return self.recording


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

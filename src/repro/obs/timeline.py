"""Per-round progress timelines, observability levels and JSONL export.

The paper's headline claims are *trajectories* — Algorithm 1 completes in
``⌈θ/α⌉ + 1`` phases of ``T = k + α·L`` rounds while KLO needs ``O(n·k)``
rounds — but :class:`~repro.sim.metrics.Metrics` mostly records end-of-run
totals.  This module is the always-on middle layer: a
:class:`RunTimeline` of per-round counters, so dissemination-progress
curves, per-role message breakdowns per phase, and hierarchy population
dynamics are available on every run without re-execution.  Both engines
(:mod:`repro.sim.engine` and :mod:`repro.sim.columnar`) feed one
:class:`~repro.obs.observer.RunObserver`, whose send-count table
(:class:`~repro.obs.observer.SendTable`) takes one row per round; the
timeline is built from it once, when the run ends.

Observability levels (the engines' ``obs`` parameter):

``"off"``
    Record nothing; ``RunResult.timeline`` is ``None``.  The escape hatch
    for micro-benchmarks that must not pay even cheap counters.
``"timeline"`` (default)
    Record the counter timeline.  A round costs one send-count row and
    two list appends; the timeline is built once at the end — 1–4% of
    engine time over ``"off"`` on the paper-sweep runs.
``"trace"``
    Timeline plus a :class:`~repro.obs.trace.CausalTrace`: one compact
    first-learn event per (node, token) pair, recorded by *both* engines
    (the fast path does not fall back), so provenance chains and hop
    histograms cost O(n·k) total.
``"record"``
    Timeline plus a :class:`~repro.obs.recorder.RunRecording`: per-round
    knowledge-set deltas, role/cluster assignments and canonically
    ordered sent messages, recorded natively by *both* engines.  A
    recording reconstructs full simulation state at any round
    (time travel), diffs against another recording
    (:func:`repro.obs.diff.diff_recordings`), and exports to Chrome
    trace-event JSON (:func:`repro.obs.recorder.to_chrome_trace`).
    Deterministic, so recorded runs ride the result cache.
``"profile"``
    Timeline plus wall-clock section timings (:class:`Profiler`):
    topology decode vs. send vs. deliver vs. receive vs. bookkeeping.
    Wall times are non-deterministic, so profiled runs bypass the result
    cache; :attr:`RunTimeline.profile` is excluded from equality so the
    fastpath⇄reference timeline-equivalence guarantees still hold.

Timelines serialize through :func:`repro.io.timeline_to_dict` (they ride
along inside ``RunResult`` archives and the on-disk result cache) and
export as JSONL structured events via :func:`write_events` — one JSON
object per line: a ``run`` header, one ``round`` event per round,
optionally one ``learn`` event per causal first-learn, and a closing
``summary`` carrying the run's metric totals (the CLI's
``repro run … --events out.jsonl``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = [
    "EVENTS_SCHEMA_VERSION",
    "OBS_LEVELS",
    "Profiler",
    "RunTimeline",
    "encode_round",
    "read_events",
    "validate_obs",
    "write_events",
]

#: Recognised observability levels, cheapest first.
OBS_LEVELS = ("off", "timeline", "trace", "record", "profile")

#: Schema version stamped into every ``--events`` JSONL header; bump on
#: any layout change so consumers can refuse files they do not understand.
EVENTS_SCHEMA_VERSION = 1


def validate_obs(obs: str) -> str:
    """Normalise an ``obs`` level, raising ``ValueError`` on anything unknown."""
    if obs not in OBS_LEVELS:
        raise ValueError(
            f"obs must be one of {', '.join(map(repr, OBS_LEVELS))}, got {obs!r}"
        )
    return obs


class Profiler:
    """Accumulates wall-clock seconds into named sections.

    Sections nest freely and repeat cheaply (one ``perf_counter`` pair per
    entry); engines call :meth:`add` inline on their hot path, scripts and
    the ``repro profile`` command use the :meth:`section` context manager
    around coarser stages (scenario build, property checks).
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def add(self, name: str, dt: float) -> None:
        """Credit ``dt`` seconds to section ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + dt

    @contextmanager
    def section(self, name: str):
        """Time a ``with`` block into section ``name``."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - t0)


def encode_round(
    r: int,
    coverage: int,
    nodes_complete: int,
    messages: int,
    tokens: int,
    by_role: Iterable[Tuple[str, int, int]],
    populations: Optional[Iterable[Tuple[str, int]]],
) -> Dict[str, Any]:
    """The JSON-ready ``round`` event of round ``r``.

    ``by_role`` holds ``(role, messages, tokens)`` triples and
    ``populations`` ``(role, nodes)`` pairs (``None`` omits the key),
    both in role-name order.  The encoding is *prefix-stable* — it
    depends only on rounds ≤ ``r``, never on roles that first send
    later — which is why ``by_role`` lists only the roles that actually
    sent in round ``r`` (a silent round omits the key entirely).
    """
    event: Dict[str, Any] = {
        "type": "round",
        "round": r,
        "coverage": coverage,
        "nodes_complete": nodes_complete,
        "messages": messages,
        "tokens": tokens,
    }
    sent = {
        role: {"messages": m, "tokens": t} for role, m, t in by_role if m or t
    }
    if sent:
        event["by_role"] = sent
    if populations is not None:
        event["populations"] = dict(populations)
    return event


@dataclass
class RunTimeline:
    """Per-round progress counters for one engine run.

    Every list holds one entry per executed round; the role-keyed dicts
    hold equal-length columns (zero-backfilled from the round a role first
    appears).  Role columns are ordered by the first round the role sent,
    then by role code (head, gateway, member); the three population
    columns appear together from the first round with roles.  Both
    engines build it once, at the end of the run, from the observer's
    send-count table (:class:`~repro.obs.observer.SendTable`), so for
    supported algorithms the fast path's timeline is identical to the
    reference engine's — asserted by the equivalence suites.

    Attributes
    ----------
    coverage:
        Global (node, token) pairs known at the end of each round — the
        dissemination progress curve behind the Fig. 5/6 comparisons.
    nodes_complete:
        Nodes holding all ``k`` tokens at the end of each round.
    tokens:
        Communication cost (tokens transmitted) per round.
    messages:
        Transmissions per round (a broadcast counts once).
    role_messages, role_tokens:
        Per-round transmission/token counts keyed by sender role
        (``"head"`` / ``"gateway"`` / ``"member"``, or ``"flat"`` for
        role-less algorithms).
    populations:
        Per-round count of nodes holding each role; empty for flat runs.
    profile:
        Wall-clock seconds by section (``obs="profile"`` only).  Excluded
        from equality — timings never participate in equivalence checks.
    """

    coverage: List[int] = field(default_factory=list)
    nodes_complete: List[int] = field(default_factory=list)
    tokens: List[int] = field(default_factory=list)
    messages: List[int] = field(default_factory=list)
    role_messages: Dict[str, List[int]] = field(default_factory=dict)
    role_tokens: Dict[str, List[int]] = field(default_factory=dict)
    populations: Dict[str, List[int]] = field(default_factory=dict)
    profile: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def rounds(self) -> int:
        """Rounds recorded."""
        return len(self.coverage)

    # -- derived views ----------------------------------------------------

    def phases(self, T: int) -> List[Dict[str, object]]:
        """Aggregate the timeline into phases of ``T`` rounds.

        Returns one row per phase (the paper's unit of analysis) with the
        round span, message/token totals, and per-role message counts —
        the "per-role breakdown per phase" view of Tables 2/3.
        """
        if T < 1:
            raise ValueError(f"phase length T must be >= 1, got {T}")
        rows: List[Dict[str, object]] = []
        for start in range(0, self.rounds, T):
            stop = min(start + T, self.rounds)
            row: Dict[str, object] = {
                "phase": start // T,
                "rounds": f"{start}..{stop - 1}",
                "messages": sum(self.messages[start:stop]),
                "tokens": sum(self.tokens[start:stop]),
                "coverage_end": self.coverage[stop - 1],
                "nodes_complete_end": self.nodes_complete[stop - 1],
            }
            for role in sorted(self.role_messages):
                row[f"{role}_msgs"] = sum(self.role_messages[role][start:stop])
            rows.append(row)
        return rows

    def round_event(self, r: int) -> Dict[str, Any]:
        """Encode round ``r`` as its JSON-ready ``round`` event dict.

        Post-hoc export (:meth:`events` / :func:`write_events`) encodes
        through :func:`encode_round`, as the live stream does from the
        run's send-count table, so streamed counters are bit-identical to
        the written file by construction.
        """
        return encode_round(
            r, self.coverage[r], self.nodes_complete[r],
            self.messages[r], self.tokens[r],
            [
                (role, column[r], self.role_tokens[role][r]
                 if role in self.role_tokens else 0)
                for role, column in sorted(self.role_messages.items())
            ],
            sorted((role, column[r]) for role, column in self.populations.items())
            if self.populations else None,
        )

    def events(self) -> Iterator[Dict[str, Any]]:
        """Yield one JSON-ready ``round`` event per recorded round."""
        for r in range(self.rounds):
            yield self.round_event(r)

    def profile_rows(self) -> List[Dict[str, object]]:
        """Profile sections as table rows (ms and share), largest first."""
        total = sum(self.profile.values())
        rows = []
        for name, seconds in sorted(
            self.profile.items(), key=lambda kv: kv[1], reverse=True
        ):
            rows.append({
                "section": name,
                "ms": round(seconds * 1000.0, 3),
                "share": f"{seconds / total:.1%}" if total > 0 else "-",
            })
        return rows


def _summary_event(
    timeline: Optional[RunTimeline],
    summary: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``summary`` footer closing an event file or stream.

    The timeline's totals (rounds, messages, tokens), then ``summary``
    merged in, then the wall-clock ``profile_ms`` sections when the
    timeline carries any.  Shared by :func:`write_events` and
    :meth:`~repro.obs.stream.TelemetryBus.end_run`, so a streamed file
    closes with the same footer as the post-hoc export.
    """
    footer: Dict[str, Any] = {"type": "summary"}
    if timeline is not None:
        footer["rounds"] = timeline.rounds
        footer["messages"] = sum(timeline.messages)
        footer["tokens"] = sum(timeline.tokens)
    if summary:
        footer.update(summary)
    if timeline is not None and timeline.profile:
        footer["profile_ms"] = {
            name: round(seconds * 1000.0, 3)
            for name, seconds in sorted(timeline.profile.items())
        }
    return footer


def write_events(
    path: Union[str, Path],
    timeline: RunTimeline,
    *,
    run_info: Optional[Mapping[str, Any]] = None,
    summary: Optional[Mapping[str, Any]] = None,
    causal=None,
) -> int:
    """Write a timeline as JSONL structured events; returns the line count.

    Layout: a ``run`` header (``run_info`` merged in), one ``round`` event
    per round (see :meth:`RunTimeline.events`), optionally one ``learn``
    event per causal first-learn (``causal`` — a
    :class:`~repro.obs.trace.CausalTrace` recorded at ``obs="trace"``),
    and a ``summary`` footer (``summary`` — typically
    ``Metrics.summary()`` — merged in) so stream consumers can cross-check
    the per-round counters against the run's totals without
    re-aggregating.
    """
    # local import: the stream sinks build on this module
    from types import SimpleNamespace

    from .stream import JsonlStreamSink, TelemetryBus

    sink = JsonlStreamSink(path, run_info={"rounds": timeline.rounds,
                                           **(run_info or {})})
    bus = TelemetryBus([sink])
    try:
        bus.replay(timeline)
        bus.end_run(SimpleNamespace(timeline=timeline, causal_trace=causal),
                    summary=summary)
        bus.close()
        if bus.sink_errors:  # the bus contains sink failures; an export
            raise ValueError(f"events file {path}: {bus.sink_errors} "
                             "event(s) could not be written")
    except BaseException:
        bus.close()
        Path(path).unlink(missing_ok=True)  # a failed export leaves no file
        raise
    return sink.lines


def _check_events_header(header: Any, path: Union[str, Path]) -> Dict[str, Any]:
    """Validate an events file's first event; returns it unchanged.

    It must be a ``type: "run"`` object whose ``schema_version`` this
    reader understands.  Files written before versioning carry no
    ``schema_version`` and are read as version 1 (the layout is
    unchanged).  Anything else raises a :class:`ValueError` naming
    ``path``.  Shared by :func:`read_events` and ``repro watch``.
    """
    if not isinstance(header, dict) or header.get("type") != "run":
        raise ValueError(
            f"events file {path} does not start with a 'run' header line"
        )
    version = header.get("schema_version", 1)
    if version != EVENTS_SCHEMA_VERSION:
        raise ValueError(
            f"events file {path} has schema_version {version!r}; this "
            f"reader understands version {EVENTS_SCHEMA_VERSION} — "
            "re-export the run or upgrade repro"
        )
    return header


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a :func:`write_events` JSONL file back into event dicts.

    Validates the header before yielding anything
    (:func:`_check_events_header`), so an unknown layout raises a clear
    :class:`ValueError` instead of silently misparsing.  A line that is
    not JSON — a file cut mid-line by an interrupted writer — raises a
    :class:`ValueError` naming the file and the line.
    """
    text = Path(path).read_text()
    lines = [
        (number, line)
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise ValueError(f"events file {path} is empty")

    def parse(number: int, line: str) -> Any:
        try:
            return json.loads(line)
        except ValueError as exc:
            raise ValueError(
                f"events file {path}, line {number}: not a JSON event "
                f"({exc}); was the file cut mid-line?"
            ) from None

    header = _check_events_header(parse(*lines[0]), path)
    return [header] + [parse(*entry) for entry in lines[1:]]

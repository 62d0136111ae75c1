"""Streaming telemetry bus: live, incremental run observability.

Every other surface in :mod:`repro.obs` is *post-hoc* — nothing is
visible until the engine returns, which at million-node scale (or across
a whole bench-fleet run) means minutes of silence.  This module is the
live layer: a :class:`TelemetryBus` that both engine tiers
(:mod:`repro.sim.engine` and the vectorised loop of
:mod:`repro.sim.columnar`) feed incrementally at round granularity, and
a small family of :class:`TelemetrySink`\\ s that consume the stream as
it happens:

* :class:`JsonlStreamSink` — incremental ``--events`` JSONL: the header
  is written at attach time and every event is flushed as it is
  published, so an interrupted run leaves a valid partial file
  (:func:`~repro.obs.timeline.read_events` parses it);
* :class:`LiveDashboard` — the ``repro watch`` / ``repro run --live``
  terminal view: stdlib-ANSI in-place redraw on a TTY, periodic plain
  progress lines otherwise;
* :class:`MetricsExporter` — a Prometheus-textfile snapshot of the
  stream's counters for external scrapers;
* :class:`BufferSink` — a bounded in-memory buffer with drop-counting
  backpressure: a slow consumer can never stall the hot loop, it just
  loses samples (and knows how many).

Events are plain JSON-ready dicts tagged by ``type``: the per-round
``round`` events are *exactly* the dicts
:func:`~repro.obs.timeline.encode_round` encodes — live from the run's
send-count table (:class:`~repro.obs.observer.SendTable`), post-hoc from
the timeline (the encoding ``write_events`` uses) — so streamed counters
are bit-identical to the post-hoc timeline by construction and attaching
a bus never changes a run's outputs, metrics, or timeline.  Supporting types:
``run`` (header), ``alert`` (a live monitor
:class:`~repro.obs.monitors.Violation`), ``task`` (a ``parallel_map``
worker heartbeat), ``case`` (bench-fleet per-case progress), and ``summary``
(footer; same layout as :func:`~repro.obs.timeline.write_events`).

Round **decimation** (``TelemetryBus(decimate=N)``) publishes every
N-th round — the construction of the event dict itself is skipped on
decimated rounds, so a million-node run can stream without perturbing
the hot loop.  The final round is always published
(:meth:`TelemetryBus.end_run` back-fills it), so consumers always see
the closing state.  Overhead is gated per PR by the
``algorithm1_benign_n100_fast_stream_pinned`` case of ``repro bench``
(at most 1.15× the bus-free ``obs="timeline"`` run).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, TextIO, Union

from .timeline import EVENTS_SCHEMA_VERSION, RunTimeline, _summary_event

__all__ = [
    "BufferSink",
    "JsonlStreamSink",
    "LiveDashboard",
    "MetricsExporter",
    "TelemetryBus",
    "TelemetrySink",
]

Event = Dict[str, Any]


class TelemetrySink:
    """A consumer of telemetry events (the sink protocol).

    Subclasses override :meth:`emit`; :meth:`close` is called once when
    the bus shuts down.  A sink that applies backpressure (a bounded
    buffer) exposes the number of events it shed as ``drops`` — the bus
    aggregates them.
    """

    drops: int = 0

    def emit(self, event: Event) -> None:
        """Consume one event (must never block the publisher)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further ``emit`` calls are undefined."""


class BufferSink(TelemetrySink):
    """Bounded in-memory sink; the reference backpressure implementation.

    Keeps at most ``maxsize`` events (unbounded when ``None``).  Once
    full, *new* events are shed and counted in :attr:`drops` — the
    publisher never blocks and the retained prefix stays contiguous, so
    a partial stream reads like an interrupted run.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.events: List[Event] = []
        self.drops = 0

    def emit(self, event: Event) -> None:
        if self.maxsize is not None and len(self.events) >= self.maxsize:
            self.drops += 1
            return
        self.events.append(event)

    def of_type(self, kind: str) -> List[Event]:
        """The retained events of one ``type`` (test convenience)."""
        return [e for e in self.events if e.get("type") == kind]


class TelemetryBus:
    """In-process pub/sub fan-out from one run to its attached sinks.

    The engine-facing surface is three calls: :meth:`on_round` with
    every round's event (the observer asks :meth:`wants_round` first, so
    on skipped rounds not even the event dict is built), :meth:`alert`
    per fresh monitor violation, and :meth:`end_run` once, which
    back-fills the final round if decimation skipped it, publishes any
    causal first-learn events, and closes with a ``summary`` footer
    matching :func:`~repro.obs.timeline.write_events`.  Sink exceptions are
    contained (counted in :attr:`sink_errors`) — telemetry must never
    take down a run.
    """

    def __init__(self, sinks=(), *, decimate: int = 1) -> None:
        if decimate < 1:
            raise ValueError(f"decimate must be >= 1, got {decimate}")
        self.decimate = int(decimate)
        self._sinks: List[TelemetrySink] = list(sinks)
        self._last_round: Optional[int] = None
        self._ended = False
        self.published = 0
        self.sink_errors = 0

    @property
    def drops(self) -> int:
        """Total events shed by backpressure across all sinks."""
        return sum(getattr(sink, "drops", 0) for sink in self._sinks)

    def attach(self, sink: TelemetrySink) -> TelemetrySink:
        """Add a sink (returned, for chaining)."""
        self._sinks.append(sink)
        return sink

    def publish(self, event: Event) -> None:
        """Fan one event out to every sink, containing sink failures."""
        self.published += 1
        for sink in self._sinks:
            try:
                sink.emit(event)
            except Exception:
                self.sink_errors += 1

    def wants_round(self, r: int) -> bool:
        """Whether round ``r`` survives decimation."""
        return r % self.decimate == 0

    def on_round(self, event: Event) -> None:
        """Publish the just-closed round's ``round`` event."""
        self._last_round = event["round"]
        self.publish(event)

    def alert(self, violation) -> None:
        """Publish a live monitor :class:`~repro.obs.monitors.Violation`."""
        self.publish({
            "type": "alert",
            "monitor": violation.monitor,
            "round": violation.round,
            "message": violation.message,
        })

    def replay(self, timeline: RunTimeline) -> None:
        """Stream an already-recorded timeline (cache hits, ``watch``)."""
        for r in range(timeline.rounds):
            if self.wants_round(r):
                self.on_round(timeline.round_event(r))

    def end_run(self, result=None, summary=None) -> None:
        """Close the stream: final round, causal events, summary footer.

        Idempotent — the engine calls this when the run returns, and
        callers holding only the bus may call it again safely.
        ``result`` is the engine's ``RunResult`` (or anything with
        ``timeline`` / ``causal_trace`` / ``metrics`` attributes);
        ``summary`` overrides the footer's merged metric totals.
        """
        if self._ended:
            return
        self._ended = True
        timeline = getattr(result, "timeline", None)
        if timeline is not None:
            last = timeline.rounds - 1
            if last >= 0 and self._last_round != last:
                self.on_round(timeline.round_event(last))
        causal = getattr(result, "causal_trace", None)
        if causal is not None:
            for event in causal.events_jsonl():
                self.publish(event)
        if summary is None:
            metrics = getattr(result, "metrics", None)
            if metrics is not None:
                summary = metrics.summary()
        self.publish(_summary_event(timeline, summary))

    def close(self) -> None:
        """Close every sink (sink failures are contained here too)."""
        for sink in self._sinks:
            try:
                sink.close()
            except Exception:
                self.sink_errors += 1


class JsonlStreamSink(TelemetrySink):
    """Incremental JSONL event stream (the live ``--events`` writer).

    The ``run`` header goes to disk at construction and every published
    event is written *and flushed* as it arrives — at any instant the
    file on disk is a valid (possibly footer-less) events file that
    :func:`~repro.obs.timeline.read_events` parses, so an interrupted
    run leaves its progress behind instead of nothing.  Line layout:
    header, ``round`` events, optional ``learn`` events, ``summary``
    footer; :func:`~repro.obs.timeline.write_events` replays a finished
    timeline through this sink, so both files share one writer.
    """

    def __init__(
        self,
        path: Union[str, Path],
        run_info: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.path = Path(path)
        self.drops = 0
        self.lines = 0
        header: Event = {
            "type": "run",
            "schema_version": EVENTS_SCHEMA_VERSION,
        }
        if run_info:
            header.update(run_info)
        # encode before opening: a bad header leaves no file behind
        line = json.dumps(header, sort_keys=True)
        self._handle: Optional[TextIO] = open(self.path, "w")
        self._write_line(line)

    def _write_line(self, line: str) -> None:
        self._handle.write(line + "\n")
        self._handle.flush()
        self.lines += 1

    def emit(self, event: Event) -> None:
        if self._handle is None:
            self.drops += 1
            return
        self._write_line(json.dumps(event, sort_keys=True))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


#: Metric name -> (help text, Prometheus type) for the exporter.
_METRIC_META = {
    "repro_rounds_total": ("Rounds streamed so far.", "counter"),
    "repro_coverage": (
        "Global (node, token) pairs known at the last streamed round.",
        "gauge",
    ),
    "repro_nodes_complete": (
        "Nodes holding all k tokens at the last streamed round.", "gauge",
    ),
    "repro_messages_total": ("Transmissions accumulated.", "counter"),
    "repro_tokens_total": ("Token cost accumulated.", "counter"),
    "repro_alerts_total": ("Monitor violations streamed.", "counter"),
    "repro_worker_events_total": (
        "Worker heartbeats (task and case events) streamed.",
        "counter",
    ),
    "repro_run_complete": (
        "1 once the summary footer arrived, else 0.", "gauge",
    ),
}


class MetricsExporter(TelemetrySink):
    """Prometheus-textfile (OTLP-lite) snapshot of the stream's counters.

    Consumes the event stream into a flat name → value metric dict and
    renders it in the node-exporter textfile-collector format
    (``# HELP`` / ``# TYPE`` / sample lines).  With a ``path`` the
    snapshot is rewritten atomically (tmp + rename) at most once per
    ``interval`` seconds and once at :meth:`close` — external scrapers
    read a consistent file while the run is still going.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        interval: float = 1.0,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.interval = interval
        self.drops = 0
        self.values: Dict[str, float] = {name: 0 for name in _METRIC_META}
        self.labels: Dict[str, str] = {}
        self._last_write = 0.0

    def emit(self, event: Event) -> None:
        kind = event.get("type")
        values = self.values
        if kind == "round":
            values["repro_rounds_total"] = event["round"] + 1
            values["repro_coverage"] = event["coverage"]
            values["repro_nodes_complete"] = event["nodes_complete"]
            values["repro_messages_total"] += event["messages"]
            values["repro_tokens_total"] += event["tokens"]
        elif kind == "alert":
            values["repro_alerts_total"] += 1
        elif kind in ("task", "case"):
            values["repro_worker_events_total"] += 1
        elif kind == "summary":
            values["repro_run_complete"] = 1
        elif kind == "run":
            for key in ("algorithm", "scenario", "engine"):
                if key in event:
                    self.labels[key] = str(event[key])
        if self.path is not None:
            now = time.monotonic()
            if kind == "summary" or now - self._last_write >= self.interval:
                self._last_write = now
                self.write_textfile()

    def render(self) -> str:
        """The current snapshot in Prometheus text exposition format."""
        labels = ",".join(
            f'{key}="{value}"' for key, value in sorted(self.labels.items())
        )
        suffix = f"{{{labels}}}" if labels else ""
        lines = []
        for name, (help_text, kind) in _METRIC_META.items():
            value = self.values[name]
            body = f"{value:g}" if isinstance(value, float) else str(value)
            lines += [
                f"# HELP {name} {help_text}",
                f"# TYPE {name} {kind}",
                f"{name}{suffix} {body}",
            ]
        return "\n".join(lines) + "\n"

    def write_textfile(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Atomically write the snapshot; returns the path written."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("MetricsExporter has no path to write to")
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(self.render())
        os.replace(tmp, target)
        return target

    def close(self) -> None:
        if self.path is not None:
            self.write_textfile()


def _bar(done: int, total: int, width: int = 24) -> str:
    """A unicode progress bar like ``[████████░░░░] 66%``."""
    if total <= 0:
        return "[" + "?" * width + "]"
    frac = min(max(done / total, 0.0), 1.0)
    filled = int(frac * width)
    return f"[{'█' * filled}{'░' * (width - filled)}] {frac:4.0%}"


class LiveDashboard(TelemetrySink):
    """Terminal view of a live (or replayed) telemetry stream.

    On a TTY the dashboard redraws in place with stdlib ANSI escapes
    (cursor-up + erase-line); on anything else — CI logs, pipes — it
    falls back to periodic plain text lines, at most one per
    ``interval`` seconds plus a final render at close.  Shows the
    coverage / nodes-complete progress bars, per-role message rates,
    live monitor excursion alerts, and per-worker / per-case lag from
    the ``task`` / ``case`` heartbeat events.
    """

    def __init__(
        self,
        out: Optional[TextIO] = None,
        *,
        interval: float = 0.5,
        ansi: Optional[bool] = None,
        clock=time.monotonic,
    ) -> None:
        self.out = out if out is not None else sys.stderr
        if ansi is None:
            ansi = bool(getattr(self.out, "isatty", lambda: False)())
        self.ansi = ansi
        self.interval = interval
        self.drops = 0
        self._clock = clock
        self._last_render = float("-inf")
        self._drawn_lines = 0
        self.info: Event = {}
        self.round: Optional[Event] = None
        self.summary: Optional[Event] = None
        self.alerts: List[Event] = []
        self.workers: Dict[str, Event] = {}
        self._closed = False

    # -- event intake ------------------------------------------------------

    def emit(self, event: Event) -> None:
        kind = event.get("type")
        if kind == "run":
            self.info = dict(event)
        elif kind == "round":
            self.round = event
        elif kind == "alert":
            self.alerts.append(event)
        elif kind == "task":
            key = f"worker pid {event.get('pid', '?')}"
            self.workers[key] = {**event, "at": self._clock()}
        elif kind == "case":
            key = f"case {event.get('case', '?')}"
            self.workers[key] = {**event, "at": self._clock()}
        elif kind == "summary":
            self.summary = event
        self.render()

    # -- rendering ---------------------------------------------------------

    def _lines(self) -> List[str]:
        info = self.info
        title = " ".join(
            str(info[key]) for key in ("algorithm", "scenario", "engine")
            if key in info
        ) or "run"
        lines = []
        event = self.round
        if event is not None:
            n = info.get("n")
            k = info.get("k")
            pairs = n * k if isinstance(n, int) and isinstance(k, int) else 0
            lines.append(
                f"{title} · round {event['round']}  coverage "
                f"{_bar(event['coverage'], pairs)} "
                f"({event['coverage']}{f'/{pairs}' if pairs else ''})"
            )
            if isinstance(n, int):
                lines.append(
                    f"  nodes complete {_bar(event['nodes_complete'], n)} "
                    f"({event['nodes_complete']}/{n})"
                )
            rates = "  ".join(
                f"{role}={cost['messages']}m/{cost['tokens']}t"
                for role, cost in sorted(event.get("by_role", {}).items())
            )
            lines.append(
                f"  msgs {event['messages']}  tokens {event['tokens']}"
                + (f"  by role: {rates}" if rates else "")
            )
        if self.alerts:
            last = self.alerts[-1]
            lines.append(
                f"  alerts: {len(self.alerts)}  last: [{last['monitor']}] "
                f"round {last['round']}: {last['message']}"
            )
        if self.workers:
            now = self._clock()
            parts = []
            for key, ev in sorted(self.workers.items()):
                lag = now - ev["at"]
                status = ev.get("status", "")
                ms = ev.get("ms")
                detail = f" {ms:.1f}ms" if isinstance(ms, (int, float)) else ""
                parts.append(
                    f"{key} {status}{detail} ({lag:.1f}s ago)".strip()
                )
            lines.append("  workers: " + "; ".join(parts))
        if self.summary is not None:
            s = self.summary
            lines.append(
                f"summary: rounds={s.get('rounds')} "
                f"messages={s.get('messages')} tokens={s.get('tokens')} "
                f"completion_round={s.get('completion_round')}"
            )
        return lines

    def render(self, force: bool = False) -> None:
        final = self.summary is not None
        now = self._clock()
        if not (force or final) and now - self._last_render < self.interval:
            return
        self._last_render = now
        lines = self._lines()
        if not lines:
            return
        if self.ansi:
            # repaint in place: climb over the previous frame, erase, redraw
            if self._drawn_lines:
                self.out.write(f"\x1b[{self._drawn_lines}F")
            self.out.write("".join(f"\x1b[2K{line}\n" for line in lines))
            self._drawn_lines = len(lines)
        else:
            self.out.write("\n".join(lines) + "\n")
        self.out.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.summary is None:
            self.render(force=True)

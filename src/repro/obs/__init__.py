"""Observability: timelines, causal traces, runtime monitors, aggregation.

Layered by cost, selected with the engines' ``obs`` parameter
(:data:`OBS_LEVELS` — ``"off"``, ``"timeline"``, ``"trace"``,
``"record"``, ``"profile"``):

* :mod:`repro.obs.timeline` — O(1)-per-round progress counters
  (:class:`RunTimeline`), wall-clock section profiling
  (:class:`Profiler`), and the JSONL structured-event export
  (:func:`write_events`);
* :mod:`repro.obs.observer` — the one per-round feed both engines call
  (:class:`RunObserver`), which derives every consumer below from three
  calls per round;
* :mod:`repro.obs.trace` — causal provenance at ``obs="trace"``: one
  first-learn event per (node, token) (:class:`CausalTrace`), recorded
  bit-identically by both engines;
* :mod:`repro.obs.recorder` — deterministic record/replay at
  ``obs="record"``: per-round knowledge deltas + roles + messages
  (:class:`RunRecording`), time-travel state reconstruction, and Chrome
  trace-event export (:func:`to_chrome_trace`);
* :mod:`repro.obs.diff` — round-aligned run differencing with divergence
  bisection over prefix digests (:func:`diff_recordings` →
  :class:`DivergenceReport`, :func:`diff_engines` for fast⇄reference);
* :mod:`repro.obs.monitors` — live theorem-invariant checks
  (:class:`Monitor` / :func:`default_monitors`) emitting structured
  :class:`Violation` diagnostics, surfaced by ``repro run --monitor``;
* :mod:`repro.obs.aggregate` — cross-run percentile progress bands
  (:func:`merge_timelines`) behind the ``repro report`` dashboard;
* :mod:`repro.obs.stream` — live streaming: an in-process pub/sub
  :class:`TelemetryBus` fed per round by both engine tiers, with a
  drop-counting backpressure sink (:class:`BufferSink`), incremental
  JSONL (:class:`JsonlStreamSink`), the ``repro watch`` terminal view
  (:class:`LiveDashboard`), and a Prometheus-textfile
  :class:`MetricsExporter`.
"""

from .aggregate import ProgressBands, merge_timelines, render_dashboard
from .diff import DivergenceReport, NodeDivergence, diff_engines, diff_recordings
from .monitors import (
    BudgetMonitor,
    CoverageMonotonicityMonitor,
    EnvelopeMonitor,
    HeadProgressMonitor,
    Monitor,
    RoundView,
    StabilityMonitor,
    Violation,
    default_monitors,
)
from .observer import RunObserver
from .recorder import (
    MessageRecord,
    RoundDelta,
    RunRecorder,
    RunRecording,
    to_chrome_trace,
)
from .stream import (
    BufferSink,
    JsonlStreamSink,
    LiveDashboard,
    MetricsExporter,
    TelemetryBus,
    TelemetrySink,
)
from .timeline import (
    EVENTS_SCHEMA_VERSION,
    OBS_LEVELS,
    Profiler,
    RunTimeline,
    read_events,
    validate_obs,
    write_events,
)
from .trace import ORIGIN_ROLE, CausalTrace, LearnEvent

__all__ = [
    "EVENTS_SCHEMA_VERSION",
    "OBS_LEVELS",
    "ORIGIN_ROLE",
    "BudgetMonitor",
    "BufferSink",
    "CausalTrace",
    "CoverageMonotonicityMonitor",
    "EnvelopeMonitor",
    "DivergenceReport",
    "HeadProgressMonitor",
    "JsonlStreamSink",
    "LearnEvent",
    "LiveDashboard",
    "MessageRecord",
    "MetricsExporter",
    "Monitor",
    "NodeDivergence",
    "ProgressBands",
    "Profiler",
    "RoundDelta",
    "RoundView",
    "RunObserver",
    "RunRecorder",
    "RunRecording",
    "RunTimeline",
    "StabilityMonitor",
    "TelemetryBus",
    "TelemetrySink",
    "Violation",
    "default_monitors",
    "diff_engines",
    "diff_recordings",
    "merge_timelines",
    "read_events",
    "render_dashboard",
    "to_chrome_trace",
    "validate_obs",
    "write_events",
]

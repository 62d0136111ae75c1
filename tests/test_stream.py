"""Streaming telemetry bus (repro.obs.stream): sink backpressure and
drop counting, round decimation, bit-identity of the live stream with
the post-hoc timeline across all three engine tiers, cache-hit replay,
the incremental JSONL writer, the metrics exporter, and the dashboard.
"""

import io
import json

import pytest

from repro.experiments.runner import execute
from repro.experiments.scenarios import (
    hinet_interval_scenario,
    one_interval_scenario,
)
from repro.obs import (
    BufferSink,
    JsonlStreamSink,
    LiveDashboard,
    MetricsExporter,
    RunTimeline,
    TelemetryBus,
    TelemetrySink,
    read_events,
    write_events,
)

ENGINES = ("reference", "fast", "columnar")


def _timeline(rounds=6):
    messages = [r + 1 for r in range(rounds)]
    tokens = [2 * r + 1 for r in range(rounds)]
    return RunTimeline(
        coverage=[3 * r for r in range(rounds)],
        nodes_complete=list(range(rounds)),
        tokens=tokens,
        messages=messages,
        role_messages={"head": messages},
        role_tokens={"head": tokens},
    )


class _FakeResult:
    def __init__(self, timeline):
        self.timeline = timeline
        self.causal_trace = None
        self.metrics = None


class _BoomSink(TelemetrySink):
    def emit(self, event):
        raise RuntimeError("sink exploded")


class TestBufferSink:
    def test_unbounded_keeps_everything(self):
        sink = BufferSink()
        for i in range(10):
            sink.emit({"type": "round", "round": i})
        assert len(sink.events) == 10 and sink.drops == 0

    def test_bounded_sheds_new_events_contiguously(self):
        # backpressure drops the *new* event: the retained prefix stays
        # contiguous, like an interrupted run rather than a gappy one
        sink = BufferSink(maxsize=3)
        for i in range(8):
            sink.emit({"type": "round", "round": i})
        assert [e["round"] for e in sink.events] == [0, 1, 2]
        assert sink.drops == 5

    def test_of_type_filters(self):
        sink = BufferSink()
        sink.emit({"type": "run"})
        sink.emit({"type": "round", "round": 0})
        assert [e["type"] for e in sink.of_type("round")] == ["round"]

    def test_maxsize_validated(self):
        with pytest.raises(ValueError, match="maxsize"):
            BufferSink(maxsize=0)


class TestTelemetryBus:
    def test_decimate_validated(self):
        with pytest.raises(ValueError, match="decimate"):
            TelemetryBus(decimate=0)

    def test_sink_errors_contained(self):
        good = BufferSink()
        bus = TelemetryBus([_BoomSink(), good])
        bus.publish({"type": "round", "round": 0})
        assert bus.sink_errors == 1
        assert len(good.events) == 1  # later sinks still served

    def test_drops_aggregate_across_sinks(self):
        bus = TelemetryBus([BufferSink(maxsize=1), BufferSink(maxsize=2)])
        for i in range(4):
            bus.publish({"round": i})
        assert bus.drops == (4 - 1) + (4 - 2)

    def test_decimation_publishes_every_nth_round(self):
        sink = BufferSink()
        bus = TelemetryBus([sink], decimate=3)
        bus.replay(_timeline(rounds=10))
        assert [e["round"] for e in sink.of_type("round")] == [0, 3, 6, 9]

    def test_end_run_backfills_decimated_final_round(self):
        tl = _timeline(rounds=10)  # 9 % 4 != 0: decimation skips the end
        sink = BufferSink()
        bus = TelemetryBus([sink], decimate=4)
        bus.replay(tl)
        bus.end_run(_FakeResult(tl))
        assert [e["round"] for e in sink.of_type("round")] == [0, 4, 8, 9]
        assert sink.events[-1]["type"] == "summary"

    def test_end_run_is_idempotent(self):
        tl = _timeline()
        sink = BufferSink()
        bus = TelemetryBus([sink])
        bus.replay(tl)
        bus.end_run(_FakeResult(tl))
        bus.end_run(_FakeResult(tl))
        assert len(sink.of_type("summary")) == 1

    def test_alert_encodes_violation(self):
        class Violation:
            monitor = "coverage"
            round = 7
            message = "coverage decreased"

        sink = BufferSink()
        TelemetryBus([sink]).alert(Violation())
        assert sink.events == [{
            "type": "alert", "monitor": "coverage", "round": 7,
            "message": "coverage decreased",
        }]


class TestEngineStreaming:
    """Attaching a bus never changes a run; the stream is bit-identical."""

    def _scenario(self):
        return hinet_interval_scenario(n0=24, theta=8, k=3, alpha=2, L=2,
                                       seed=3, verify=False)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_streamed_rounds_match_timeline(self, engine):
        scenario = self._scenario()
        plain = execute("algorithm1", scenario, engine=engine)
        sink = BufferSink()
        bus = TelemetryBus([sink])
        streamed = execute("algorithm1", scenario, engine=engine, stream=bus)
        assert streamed.result.metrics == plain.result.metrics
        assert sink.of_type("round") == list(streamed.result.timeline.events())
        assert bus.drops == 0
        footer = sink.of_type("summary")[-1]
        assert footer["rounds"] == streamed.result.metrics.rounds
        assert footer["tokens_sent"] == streamed.tokens_sent

    def test_stream_requires_telemetry(self):
        with pytest.raises(ValueError, match="obs"):
            execute("algorithm1", self._scenario(), obs="off",
                    stream=TelemetryBus([BufferSink()]))

    def test_monitored_run_streams_alerts(self):
        # any monitored run streams one alert per fresh violation; a clean
        # run streams none — either way alert count == violation count
        scenario = one_interval_scenario(n0=12, k=3, seed=1, verify=False)
        sink = BufferSink()
        record = execute("flood-all", scenario, monitor=True,
                         stream=TelemetryBus([sink]))
        assert len(sink.of_type("alert")) == len(record.result.violations)

    def test_trace_run_streams_learn_events(self):
        scenario = self._scenario()
        sink = BufferSink()
        record = execute("algorithm1", scenario, obs="trace",
                         stream=TelemetryBus([sink]))
        learns = sink.of_type("learn")
        assert len(learns) == len(record.result.causal_trace.events)
        assert learns == list(record.result.causal_trace.events_jsonl())

    def test_cache_hit_replays_identical_stream(self, tmp_path):
        scenario = self._scenario()
        first = BufferSink()
        execute("algorithm1", scenario, cache=tmp_path,
                stream=TelemetryBus([first]))
        replayed = BufferSink()
        execute("algorithm1", scenario, cache=tmp_path,
                stream=TelemetryBus([replayed]))
        assert replayed.events == first.events


class TestJsonlStreamSink:
    def _stream_run(self, path):
        scenario = hinet_interval_scenario(n0=24, theta=8, k=3, alpha=2,
                                           L=2, seed=3, verify=False)
        sink = JsonlStreamSink(path, run_info={"algorithm": "algorithm1"})
        bus = TelemetryBus([sink])
        record = execute("algorithm1", scenario, stream=bus)
        bus.close()
        return record, sink

    def test_streamed_file_matches_posthoc_export(self, tmp_path):
        streamed_path = tmp_path / "streamed.jsonl"
        record, sink = self._stream_run(streamed_path)
        posthoc_path = tmp_path / "posthoc.jsonl"
        write_events(posthoc_path, record.result.timeline,
                     run_info={"algorithm": "algorithm1"},
                     summary=record.result.metrics.summary())
        streamed = streamed_path.read_text().splitlines()
        posthoc = posthoc_path.read_text().splitlines()
        # the only allowed divergence: the live header cannot know the
        # final round count, the post-hoc one does
        assert len(streamed) == len(posthoc) == sink.lines
        header = json.loads(posthoc[0])
        header.pop("rounds")
        assert json.loads(streamed[0]) == header
        assert streamed[1:] == posthoc[1:]

    def test_interrupted_stream_leaves_valid_partial_file(self, tmp_path):
        # simulate an interrupt: rounds flushed, no footer, sink closed
        path = tmp_path / "partial.jsonl"
        tl = _timeline(rounds=5)
        sink = JsonlStreamSink(path, run_info={"algorithm": "x"})
        bus = TelemetryBus([sink])
        for r in range(3):  # killed after round 2
            bus.publish(tl.round_event(r))
        bus.close()
        parsed = read_events(path)
        assert parsed[0]["type"] == "run"
        assert [e["round"] for e in parsed if e["type"] == "round"] == [0, 1, 2]
        assert not any(e["type"] == "summary" for e in parsed)

    def test_emit_after_close_counts_drops(self, tmp_path):
        sink = JsonlStreamSink(tmp_path / "x.jsonl")
        sink.close()
        sink.emit({"type": "round", "round": 0})
        assert sink.drops == 1


class TestMetricsExporter:
    HEADER = {"type": "run", "algorithm": "a1", "scenario": "s",
              "engine": "fast"}

    def _feed(self, exporter):
        exporter.emit(self.HEADER)
        exporter.emit({"type": "round", "round": 0, "coverage": 10,
                       "nodes_complete": 1, "messages": 4, "tokens": 9})
        exporter.emit({"type": "round", "round": 1, "coverage": 25,
                       "nodes_complete": 3, "messages": 6, "tokens": 11})
        exporter.emit({"type": "alert", "monitor": "m", "round": 1,
                       "message": "x"})
        exporter.emit({"type": "task", "pid": 7, "item": 0,
                       "status": "start"})

    def test_accumulates_counters_and_labels(self):
        exporter = MetricsExporter()
        self._feed(exporter)
        v = exporter.values
        assert v["repro_rounds_total"] == 2
        assert v["repro_coverage"] == 25  # gauge: last round wins
        assert v["repro_messages_total"] == 10  # counter: accumulates
        assert v["repro_tokens_total"] == 20
        assert v["repro_alerts_total"] == 1
        assert v["repro_worker_events_total"] == 1
        assert v["repro_run_complete"] == 0
        exporter.emit({"type": "summary", "rounds": 2})
        assert exporter.values["repro_run_complete"] == 1

    def test_render_is_prometheus_text_format(self):
        exporter = MetricsExporter()
        self._feed(exporter)
        text = exporter.render()
        assert "# HELP repro_rounds_total" in text
        assert "# TYPE repro_rounds_total counter" in text
        assert ('repro_rounds_total{algorithm="a1",engine="fast",'
                'scenario="s"} 2') in text

    def test_textfile_written_atomically_at_close(self, tmp_path):
        path = tmp_path / "metrics.prom"
        exporter = MetricsExporter(path, interval=3600.0)
        exporter.emit(self.HEADER)  # throttled: first write may be deferred
        exporter.close()
        assert "repro_run_complete" in path.read_text()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_write_without_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            MetricsExporter().write_textfile()


class TestLiveDashboard:
    def _events(self):
        return [
            {"type": "run", "algorithm": "a1", "scenario": "s",
             "engine": "fast", "n": 10, "k": 2},
            {"type": "round", "round": 0, "coverage": 12,
             "nodes_complete": 3, "messages": 4, "tokens": 9,
             "by_role": {"head": {"messages": 4, "tokens": 9}}},
            {"type": "summary", "rounds": 1, "messages": 4, "tokens": 9,
             "completion_round": None},
        ]

    def test_non_tty_emits_plain_lines(self):
        out = io.StringIO()
        dash = LiveDashboard(out=out, interval=0.0)
        for event in self._events():
            dash.emit(event)
        dash.close()
        text = out.getvalue()
        assert "\x1b[" not in text
        assert "a1 s fast · round 0" in text
        assert "coverage" in text and "12/20" in text
        assert "summary: rounds=1" in text

    def test_non_tty_throttles_between_rounds(self):
        now = [0.0]

        def clock():
            return now[0]

        out = io.StringIO()
        dash = LiveDashboard(out=out, interval=10.0, clock=clock)
        dash.emit(self._events()[0])
        for r in range(5):  # all inside one interval: at most one render
            now[0] = 1.0 + r
            dash.emit({"type": "round", "round": r, "coverage": r,
                       "nodes_complete": 0, "messages": 0, "tokens": 0})
        renders = out.getvalue().count("round")
        assert renders <= 1

    def test_tty_mode_redraws_in_place(self):
        out = io.StringIO()
        dash = LiveDashboard(out=out, interval=0.0, ansi=True)
        events = self._events()
        dash.emit(events[0])
        dash.emit(events[1])
        dash.emit(dict(events[1], round=1))
        text = out.getvalue()
        assert "\x1b[2K" in text  # erase-line redraw
        assert "\x1b[" in text and "F" in text  # cursor climbed back up

    def test_close_renders_final_state_without_summary(self):
        out = io.StringIO()
        dash = LiveDashboard(out=out, interval=3600.0)
        dash.emit(self._events()[0])
        dash.emit(self._events()[1])
        dash.close()
        assert "round 0" in out.getvalue()  # interrupted run still shown

    def test_worker_heartbeats_shown_with_lag(self):
        out = io.StringIO()
        dash = LiveDashboard(out=out, interval=0.0)
        dash.emit({"type": "case", "case": "c1", "status": "done",
                   "ms": 0.4})
        dash.emit({"type": "task", "pid": 4242, "item": 0,
                   "status": "start"})
        dash.close()
        text = out.getvalue()
        assert "case c1 done 0.4ms" in text
        assert "worker pid 4242 start" in text

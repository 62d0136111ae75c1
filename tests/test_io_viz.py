"""Tests for serialization (repro.io) and text visualisation (repro.viz)."""

import json

import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.graphs.generators.static import path_graph, static_trace
from repro.experiments.runner import RunRecord
from repro.io import (
    load_trace,
    metrics_to_dict,
    run_record_from_dict,
    run_record_to_dict,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.sim.engine import RunResult, run
from repro.sim.messages import initial_assignment
from repro.sim.metrics import Metrics
from repro.viz import render_adjacency, render_clusters, render_progress, sparkline


class TestTraceRoundtrip:
    def test_flat_roundtrip(self):
        trace = static_trace(path_graph(5), rounds=3)
        back = trace_from_dict(trace_to_dict(trace))
        assert back.n == 5 and back.horizon == 3
        for r in range(3):
            assert back.snapshot(r).edge_set() == trace.snapshot(r).edge_set()

    def test_clustered_roundtrip(self, small_hinet):
        trace = small_hinet.trace
        back = trace_from_dict(trace_to_dict(trace))
        assert back.clustered
        for r in range(trace.horizon):
            a, b = trace.snapshot(r), back.snapshot(r)
            assert a.edge_set() == b.edge_set()
            assert a.roles == b.roles
            assert a.head_of == b.head_of
        back.validate_hierarchy()

    def test_file_roundtrip(self, tmp_path, small_hinet):
        path = save_trace(small_hinet.trace, tmp_path / "scenario.json")
        back = load_trace(path)
        assert back.horizon == small_hinet.trace.horizon
        # the persisted artifact is plain JSON
        json.loads(path.read_text())

    def test_runs_identically_after_roundtrip(self, tmp_path):
        trace = static_trace(path_graph(6), rounds=8)
        path = save_trace(trace, tmp_path / "t.json")
        back = load_trace(path)
        init = initial_assignment(2, 6, mode="spread")
        a = run(trace, make_flood_all_factory(), k=2, initial=init,
                max_rounds=8, stop_when_complete=True)
        b = run(back, make_flood_all_factory(), k=2, initial=init,
                max_rounds=8, stop_when_complete=True)
        assert a.metrics.tokens_sent == b.metrics.tokens_sent
        assert a.outputs == b.outputs

    def test_format_guard(self):
        with pytest.raises(ValueError, match="format"):
            trace_from_dict({"format": "something-else"})

    def test_version_guard(self):
        with pytest.raises(ValueError, match="version"):
            trace_from_dict({"format": "repro-trace", "version": 99})

    def test_corrupt_roles_rejected(self):
        trace = generate_hinet(
            HiNetParams(n=6, theta=2, num_heads=2, T=2, phases=1), seed=0
        ).trace
        data = trace_to_dict(trace)
        data["rounds"][0]["roles"] = "hm"  # wrong length
        with pytest.raises(ValueError, match="roles"):
            trace_from_dict(data)


class TestScenarioRoundtrip:
    def test_scenario_roundtrip_runs_identically(self, tmp_path):
        from repro.experiments.runner import execute
        from repro.experiments.scenarios import hinet_interval_scenario
        from repro.io import load_scenario, save_scenario

        scenario = hinet_interval_scenario(
            n0=20, theta=6, k=2, alpha=2, L=2, seed=31,
        )
        path = save_scenario(scenario, tmp_path / "scenario.json")
        back = load_scenario(path)
        assert back.k == scenario.k
        assert back.initial == dict(scenario.initial)
        assert back.params["T"] == scenario.params["T"]
        assert "generator" not in back.params  # provenance object dropped
        a = execute("algorithm1", scenario)
        b = execute("algorithm1", back)
        assert a.tokens_sent == b.tokens_sent
        assert a.completion_round == b.completion_round

    def test_scenario_format_guard(self):
        from repro.io import scenario_from_dict

        with pytest.raises(ValueError, match="format"):
            scenario_from_dict({"format": "repro-trace"})


class TestMetricsDict:
    def test_summary_and_roles(self):
        trace = static_trace(path_graph(4), rounds=5)
        res = run(trace, make_flood_all_factory(), k=1,
                  initial={0: frozenset({0})}, max_rounds=5,
                  stop_when_complete=True)
        d = metrics_to_dict(res.metrics)
        assert d["tokens_sent"] == res.metrics.tokens_sent
        assert "flat" in d["by_role"]
        assert "per_round_tokens" not in d

    def test_series_ride_in_the_record_columns(self):
        """The per-round series are archived as a run record's columns,
        not in the metrics header."""
        m = Metrics(per_round_tokens=[2])
        m.end_round(3)
        assert "per_round_coverage" not in metrics_to_dict(m)
        record = RunRecord(
            algorithm="synthetic", scenario="hand-built", n=1, k=1,
            bound_rounds=1, rounds=1, completion_round=None, tokens_sent=2,
            messages_sent=1, complete=False,
            result=RunResult(n=1, k=1, metrics=m, outputs={}, complete=False),
        )
        back = run_record_from_dict(run_record_to_dict(record)).result.metrics
        assert back.per_round_coverage == [3]
        assert back.per_round_tokens == [2]


class TestViz:
    def test_render_clusters(self, two_clusters):
        out = render_clusters(two_clusters)
        assert "cluster 0: 0(h), 1(m), 2(g)" in out
        assert "gateways: 2" in out

    def test_render_clusters_requires_hierarchy(self, triangle):
        with pytest.raises(ValueError):
            render_clusters(triangle)

    def test_render_adjacency(self, triangle):
        out = render_adjacency(triangle)
        assert "#" in out
        lines = out.splitlines()
        assert len(lines) == 4  # 3 rows + footer

    def test_render_adjacency_size_cap(self):
        big = static_trace(path_graph(50), rounds=1).snapshot(0)
        with pytest.raises(ValueError):
            render_adjacency(big)

    def test_sparkline_basic(self):
        s = sparkline([0, 1, 2, 3])
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"

    def test_sparkline_constant(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_resampled_width(self):
        s = sparkline(list(range(100)), width=10)
        assert len(s) == 10

    def test_render_progress(self):
        trace = static_trace(path_graph(5), rounds=6)
        res = run(trace, make_flood_all_factory(), k=1,
                  initial={0: frozenset({0})}, max_rounds=6,
                  stop_when_complete=True)
        out = render_progress(res.metrics, n=5, k=1)
        assert "complete @ round" in out
        assert "▁" in out or "█" in out

    def test_render_progress_empty(self):
        assert "(no progress data)" in render_progress(Metrics(), n=0, k=0)

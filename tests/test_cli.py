"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs import read_events


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.seed == 2013
        assert not args.simulate


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "(k+a*L, L)-HiNet" in out
        assert "4320" in out

    def test_table2_custom_params(self, capsys):
        main(["table2", "--n0", "50", "--theta", "10", "--nm", "20",
              "--k", "4", "--alpha", "2"])
        out = capsys.readouterr().out
        assert "1-interval connected [7]" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "180" in out and "-960" in out

    def test_table3_simulated(self, capsys):
        assert main(["--seed", "2013", "table3", "--simulate", "--n0", "50"]) == 0
        out = capsys.readouterr().out
        assert "measured_comm" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        assert "cluster 0" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        assert "lattice" in capsys.readouterr().out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "token 0 starts at member" in capsys.readouterr().out

    def test_sweep_n_small(self, capsys):
        assert main(["sweep-n", "--sizes", "40", "60", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "comm_ratio" in out

    def test_sweep_nr_small(self, capsys):
        assert main(["sweep-nr", "--ps", "0.0", "0.5", "--n0", "30",
                     "--theta", "9"]) == 0
        assert "empirical_nr" in capsys.readouterr().out

    def test_ablation_small(self, capsys):
        assert main(["ablation", "--alphas", "2", "--Ls", "2"]) == 0
        assert "alg1_stable_comm" in capsys.readouterr().out

    def test_mobility_small(self, capsys):
        assert main(["mobility", "--nodes", "20", "--rounds", "25",
                     "--radius", "70"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 2 (HiNet)" in out

    def test_count_hierarchical(self, capsys):
        assert main(["count", "--n0", "16"]) == 0
        out = capsys.readouterr().out
        assert "exact=True" in out

    def test_count_kcommittee(self, capsys):
        assert main(["count", "--n0", "10", "--method", "kcommittee"]) == 0
        out = capsys.readouterr().out
        assert "accepted at k=" in out

    def test_pareto(self, capsys):
        assert main(["pareto", "--n0", "24", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "frontier:" in out
        assert "Algorithm 2" in out


class TestRegistryCommands:
    def test_list_algorithms(self, capsys):
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("algorithm1", "algorithm2", "klo-interval", "gossip",
                     "dhop-dissemination"):
            assert name in out, name
        assert "guaranteed" in out and "best-effort" in out

    def test_list_algorithms_envelope_columns(self, capsys):
        """Satellite: phase_length / alpha / bound columns from the
        symbolic cost model."""
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        for column in ("phase_length", "alpha", "bound"):
            assert column in out, column
        assert "theorem: n - 1" in out  # algorithm2's closed-form bound
        assert "horizon: R" in out  # best-effort specs measure a window

    def test_validate_model_sweeps_registry(self, capsys, tmp_path):
        ratios = tmp_path / "ratios.json"
        assert main(["validate-model", "--n0", "24", "--k", "3",
                     "--json", str(ratios)]) == 0
        out = capsys.readouterr().out
        assert "every benign-family case inside its Table 2 envelope" in out
        assert "algorithm1" in out and "tokens_ratio" in out
        from repro.io import load_ratio_table

        rows = load_ratio_table(ratios)
        assert rows and all(row["within"] is True for row in rows)

    def test_validate_model_markdown_and_subset(self, capsys):
        assert main(["validate-model", "--n0", "24", "--k", "3",
                     "--algorithms", "algorithm1", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n| algorithm1 |") == 1 or "| algorithm1" in out

    def test_run_auto_scenario(self, capsys):
        assert main(["run", "algorithm1", "--n0", "24", "--theta", "7",
                     "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 1 (HiNet)" in out
        assert "HiNet n=24" in out  # auto-picked the (T, L)-HiNet scenario
        assert "messages_sent" in out

    def test_run_explicit_scenario_and_rounds(self, capsys):
        assert main(["run", "flood-all", "--scenario", "one-interval",
                     "--n0", "20", "--k", "3", "--rounds", "19"]) == 0
        out = capsys.readouterr().out
        assert "Flood (all)" in out

    def test_run_seeded_algorithm_reproducible(self, capsys):
        assert main(["--seed", "11", "run", "gossip", "--n0", "20",
                     "--k", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "11", "run", "gossip", "--n0", "20",
                     "--k", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_run_unknown_algorithm_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "bogus"])

    def test_run_with_cache_replays(self, capsys, tmp_path):
        argv = ["run", "algorithm2", "--n0", "20", "--k", "3",
                "--cache", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("*/*.json"))  # cached on disk
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_run_events_jsonl_cross_checks(self, capsys, tmp_path):
        import json

        path = tmp_path / "events.jsonl"
        assert main(["run", "algorithm2", "--n0", "20", "--k", "3",
                     "--events", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"events to {path}" in out
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["type"] == "run" and rows[0]["algorithm"]
        assert rows[-1]["type"] == "summary"
        rounds = [r for r in rows if r["type"] == "round"]
        assert len(rounds) == rows[-1]["rounds"]
        # final timeline rows must match the run's Metrics totals
        assert sum(r["tokens"] for r in rounds) == rows[-1]["tokens_sent"]
        assert sum(r["messages"] for r in rounds) == rows[-1]["messages_sent"]

    def test_run_events_with_obs_off_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="obs off"):
            main(["run", "algorithm2", "--n0", "20", "--k", "3",
                  "--obs", "off", "--events", str(tmp_path / "e.jsonl")])

    def test_run_live_with_obs_off_exits(self):
        with pytest.raises(SystemExit, match="obs off"):
            main(["run", "algorithm2", "--n0", "20", "--k", "3",
                  "--obs", "off", "--live"])

    def test_run_live_non_tty_dashboard(self, capsys):
        assert main(["run", "algorithm2", "--n0", "20", "--k", "3",
                     "--live"]) == 0
        captured = capsys.readouterr()
        assert "summary: rounds=" in captured.err  # dashboard on stderr
        assert "\x1b[" not in captured.err  # non-TTY: plain lines, no ANSI
        assert "Algorithm 2" in captured.out  # result table untouched

    def test_run_metrics_out_writes_textfile(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(["run", "algorithm2", "--n0", "20", "--k", "3",
                     "--metrics-out", str(path)]) == 0
        assert f"metrics textfile at {path}" in capsys.readouterr().out
        text = path.read_text()
        assert "# TYPE repro_rounds_total counter" in text
        assert "repro_run_complete" in text and " 1" in text

    def test_run_stream_decimate_thins_rounds(self, capsys, tmp_path):
        import json

        path = tmp_path / "events.jsonl"
        assert main(["run", "algorithm2", "--n0", "20", "--k", "3",
                     "--events", str(path), "--stream-decimate", "5"]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rounds = [r["round"] for r in rows if r["type"] == "round"]
        total = rows[-1]["rounds"]
        assert rounds[-1] == total - 1  # final round always published
        assert all(r % 5 == 0 for r in rounds[:-1])
        assert len(rounds) < total

    def test_watch_replays_events_file(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(["run", "algorithm2", "--n0", "20", "--k", "3",
                     "--events", str(path)]) == 0
        capsys.readouterr()
        assert main(["watch", str(path)]) == 0
        out = capsys.readouterr().out
        assert "summary: rounds=" in out
        assert f"events from {path} (complete)" in out

    def test_watch_partial_file_reports_partial(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(["run", "algorithm2", "--n0", "20", "--k", "3",
                     "--events", str(path)]) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        truncated = tmp_path / "partial.jsonl"
        truncated.write_text("\n".join(lines[:4]) + "\n")
        assert main(["watch", str(truncated)]) == 0
        out = capsys.readouterr().out
        assert "(partial)" in out

    def test_watch_reads_versionless_header(self, capsys, tmp_path):
        # files written before schema versioning are read as version 1,
        # exactly as read_events reads them
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"rounds": 1, "type": "run"}\n'
            '{"coverage": 1, "messages": 0, "nodes_complete": 1, '
            '"round": 0, "tokens": 0, "type": "round"}\n'
            '{"messages": 0, "rounds": 1, "tokens": 0, "type": "summary"}\n'
        )
        assert len(read_events(path)) == 3
        assert main(["watch", str(path)]) == 0
        assert f"events from {path} (complete)" in capsys.readouterr().out

    def test_watch_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["watch", str(tmp_path / "nope.jsonl")])

    def test_watch_rejects_non_events_file(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"type": "round", "round": 0}\n')
        with pytest.raises(SystemExit, match="run"):
            main(["watch", str(bogus)])

    def test_profile_prints_sections_and_phases(self, capsys):
        assert main(["profile", "algorithm1", "--n0", "24", "--theta", "7",
                     "--k", "3"]) == 0
        out = capsys.readouterr().out
        for section in ("scenario_build", "property_checks", "round_loop",
                        "send", "topology"):
            assert section in out, section
        assert "per-phase breakdown" in out
        assert "head_msgs" in out and "gateway_msgs" in out

    def test_profile_reference_engine(self, capsys):
        assert main(["profile", "flood-all", "--scenario", "one-interval",
                     "--n0", "16", "--k", "3", "--engine", "reference"]) == 0
        out = capsys.readouterr().out
        assert "deliver" in out  # reference-only section
        assert "flat_msgs" in out

    def test_sweep_accepts_cache_flag(self, capsys, tmp_path):
        assert main(["sweep-nr", "--ps", "0.0", "--n0", "20", "--theta", "6",
                     "--cache", str(tmp_path)]) == 0
        assert "empirical_nr" in capsys.readouterr().out
        assert list(tmp_path.glob("*/*.json"))


class TestRecordReplayDiff:
    def _record(self, tmp_path, name="rec.json", extra=()):
        path = tmp_path / name
        argv = ["record", "algorithm1", "--n0", "24", "--theta", "7",
                "--k", "3", "--out", str(path), *extra]
        assert main(argv) == 0
        return path

    def test_record_writes_recording(self, capsys, tmp_path):
        path = self._record(tmp_path)
        out = capsys.readouterr().out
        assert "fingerprint" in out and str(path) in out
        assert path.is_file()
        from repro.io import load_recording

        rec = load_recording(path)
        assert rec.rounds_recorded > 0
        assert rec.meta["algorithm"] == "algorithm1"

    def test_record_engines_agree(self, capsys, tmp_path):
        self._record(tmp_path, "fast.json")
        fast_out = capsys.readouterr().out
        self._record(tmp_path, "ref.json", extra=["--engine", "reference"])
        ref_out = capsys.readouterr().out
        fingerprint = [l for l in fast_out.splitlines() if "fingerprint" in l]
        assert fingerprint and fingerprint[0].split()[-1] in ref_out

    def test_record_chrome_export(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        self._record(tmp_path, extra=["--chrome", str(chrome)])
        assert "chrome://tracing" in capsys.readouterr().out
        trace = json.loads(chrome.read_text())
        events = trace["traceEvents"]
        assert events == sorted(events, key=lambda e: e["ts"])
        assert all({"name", "ph", "ts", "pid", "tid"} <= set(e)
                   for e in events)

    def test_replay_overview(self, capsys, tmp_path):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "round" in out and "coverage" in out

    def test_replay_time_travel_to_node(self, capsys, tmp_path):
        path = self._record(tmp_path)
        capsys.readouterr()
        assert main(["replay", str(path), "--at", "5", "--node", "3"]) == 0
        out = capsys.readouterr().out
        assert "node 3 at end of round 5" in out

    def test_replay_missing_file_exits_readably(self, tmp_path):
        with pytest.raises(SystemExit, match="recording file not found"):
            main(["replay", str(tmp_path / "nope.json")])

    def test_replay_corrupt_file_exits_readably(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="could not read recording"):
            main(["replay", str(bad)])

    def test_old_layout_recording_exits_readably(self, tmp_path):
        """A recording file in the version-1 layout (every round as JSON)
        is refused by replay and diff with a message naming its version,
        not a traceback."""
        import json

        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "format": "repro-recording", "version": 1, "schema_version": 1,
            "n": 3, "k": 2, "initial": {"0": [0]}, "meta": {},
            "rounds": [{"gained": [[1, [0]]], "lost": [],
                        "messages": [[0, "b", -1, [0], 1]]}],
        }))
        with pytest.raises(SystemExit, match="repro-recording version 1"):
            main(["replay", str(old)])
        new = self._record(tmp_path)
        with pytest.raises(SystemExit, match="repro-recording version 1"):
            main(["diff", str(new), str(old)])

    def test_replay_at_out_of_range_exits(self, tmp_path):
        path = self._record(tmp_path)
        with pytest.raises(SystemExit, match="outside recorded range"):
            main(["replay", str(path), "--at", "100000"])

    def test_diff_identical_recordings(self, capsys, tmp_path):
        a = self._record(tmp_path, "a.json")
        b = self._record(tmp_path, "b.json", extra=["--engine", "reference"])
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        assert "recordings identical" in capsys.readouterr().out

    def test_diff_engines_mode(self, capsys, tmp_path):
        assert main(["diff", "--engines", "algorithm1", "--n0", "24",
                     "--theta", "7", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "recordings identical" in out and "fast" in out

    def test_diff_divergent_exits_one_and_writes_report(self, capsys,
                                                        tmp_path):
        from dataclasses import replace

        from repro.experiments.runner import execute
        from repro.experiments.scenarios import default_kind, scenario_for
        from repro.io import save_recording
        from repro.registry import get_spec
        from repro.sim.linkmodel import PinpointFault

        a = self._record(tmp_path, "good.json")
        # the same run with a single-bit fault injected on the fast tier
        spec = get_spec("algorithm1")
        fault = PinpointFault(2, 1, 0, tiers=("fast", "columnar"))
        scenario = replace(
            scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=2013),
            link=fault.spec(),
        )
        b = tmp_path / "faulty.json"
        save_recording(
            execute(spec, scenario, obs="record", cache=False).result.recording, b
        )
        capsys.readouterr()
        report = tmp_path / "report.txt"
        assert main(["diff", str(a), str(b), "--report", str(report)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out and "first diverging round: 2" in out
        assert "DIVERGENCE" in report.read_text()

    def test_diff_mismatched_scenarios_exits_readably(self, capsys, tmp_path):
        a = self._record(tmp_path, "a.json")
        big = tmp_path / "big.json"
        assert main(["record", "algorithm1", "--n0", "30", "--theta", "7",
                     "--k", "3", "--out", str(big)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="not comparable"):
            main(["diff", str(a), str(big)])

    def test_diff_missing_file_exits_readably(self, tmp_path):
        a = self._record(tmp_path)
        with pytest.raises(SystemExit, match="recording file not found"):
            main(["diff", str(a), str(tmp_path / "absent.json")])

    def test_diff_needs_two_files(self, tmp_path):
        a = self._record(tmp_path)
        with pytest.raises(SystemExit, match="exactly two"):
            main(["diff", str(a)])

    def test_diff_rejects_files_plus_engines(self, tmp_path):
        a = self._record(tmp_path)
        with pytest.raises(SystemExit):
            main(["diff", str(a), str(a), "--engines", "algorithm1"])

"""Benchmark fleet: matrix, history series, trends and gating."""

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import (
    CaseResult,
    default_matrix,
    expand,
    gate_fleet,
    load_bench,
    ordered_history,
    previous_bucket,
    record_bucket,
    render_trend,
    run_fleet,
    select,
)
from repro.bench import matrix
from repro.bench.history import current_commit
from repro.bench.matrix import OVERHEAD_BUDGETS, TIERS, build_scenario
from repro.cli import main
from repro.experiments.cache import ResultCache
from repro.registry import get_spec
from repro.sim.linkmodel import PinpointFault

FAST_CASE = "algorithm1_benign_n48_fast_timeline"
SIBLING_CASE = "algorithm2_benign_n48_fast_timeline"
PINNED_CASE = "algorithm1_benign_n100_fast_timeline_pinned"
OVERHEAD_CASES = {
    obs: f"algorithm1_benign_n100_fast_{obs}_pinned"
    for obs in ("trace", "record", "stream")
}


class TestMatrix:
    def test_expansion_is_valid_and_unique(self):
        matrix = default_matrix()
        names = [case.name for case in matrix]
        assert len(set(names)) == len(names)
        for case in matrix:
            spec = get_spec(case.algorithm)
            assert case.family in spec.families
            assert case.engine in ("reference", "fast")
            assert ":" not in case.name  # the --inject-slowdown separator
            assert case.budget_ms > 0 and case.memory_budget_mb > 0
            assert set(case.tiers) <= set(TIERS)

    def test_quick_tier_is_a_subset_of_full(self):
        quick = {case.name for case in expand("quick")}
        full = {case.name for case in expand("full")}
        assert quick and quick < full
        assert full == {case.name for case in default_matrix()}

    def test_unknown_tier_and_case_raise(self):
        with pytest.raises(ValueError):
            expand("hourly")
        with pytest.raises(KeyError):
            select(["no_such_case"])

    def test_pinned_cases_keep_their_bounds(self):
        quick = {case.name: case for case in expand("quick")}
        pinned = quick[PINNED_CASE]
        assert pinned.baseline == ("reference", "timeline")
        assert pinned.speedup_threshold == 0.25
        assert quick[FAST_CASE].speedup_threshold == 0.5
        assert OVERHEAD_BUDGETS == {"trace": 3.0, "record": 3.0,
                                    "stream": 1.15}
        assert quick[OVERHEAD_CASES["trace"]].baseline == ("fast", "off")
        assert quick[OVERHEAD_CASES["record"]].baseline == ("fast", "off")
        assert quick[OVERHEAD_CASES["stream"]].baseline == ("fast",
                                                           "timeline")
        scenario = build_scenario(pinned)
        assert (scenario.n, scenario.k) == (pinned.n, pinned.k) == (100, 8)

    def test_scenarios_match_case_axes(self):
        for name in (FAST_CASE, "flood-all_adversarial_n48_fast_timeline",
                     "algorithm2_lossy_n48_fast_timeline"):
            case = select([name])[0]
            scenario = build_scenario(case)
            assert scenario.n == case.n
            assert scenario.k == case.k
            assert scenario.family == case.family


class TestHistory:
    def test_bucket_merge_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        record_bucket(path, {"a": {"median_ms": 1.0}}, commit="c1")
        record_bucket(path, {"b": {"median_ms": 2.0}}, commit="c1")
        # same case again: stat keys merge instead of clobbering
        record_bucket(path, {"a": {"speedup": 3.0}}, commit="c1")
        data = load_bench(path)
        bucket = data["history"]["c1"]
        assert bucket["a"] == {"median_ms": 1.0, "speedup": 3.0}
        assert bucket["b"] == {"median_ms": 2.0}

    def test_ordered_history_uses_seq_not_json_order(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        # labels chosen so sort_keys order (aaa < zzz) fights seq order
        record_bucket(path, {"a": {"median_ms": 1.0}}, commit="zzz")
        record_bucket(path, {"a": {"median_ms": 2.0}}, commit="aaa")
        data = load_bench(path)
        labels = [label for label, _, _ in ordered_history(data)]
        assert labels == ["zzz", "aaa"]
        prev = previous_bucket(data, "aaa")
        assert prev is not None and prev[0] == "zzz"
        # a run never gates against its own label, only other buckets
        assert previous_bucket(data, "zzz")[0] == "aaa"
        assert previous_bucket({"history": {}}, "zzz") is None

    def test_dirty_tree_gets_its_own_bucket(self, tmp_path, monkeypatch):
        from repro.bench import history

        outputs = {
            ("rev-parse", "--short", "HEAD"): "abc1234\n",
            ("status", "--porcelain"): " M src/file.py\n",
        }
        monkeypatch.setattr(
            history, "_git", lambda args, cwd: outputs.get(tuple(args))
        )
        assert current_commit(tmp_path) == "abc1234-dirty"
        outputs[("status", "--porcelain")] = ""
        assert current_commit(tmp_path) == "abc1234"
        path = tmp_path / "BENCH_engine.json"
        record_bucket(path, {"a": {"median_ms": 1.0}})  # clean
        outputs[("status", "--porcelain")] = " M x\n"
        record_bucket(path, {"a": {"median_ms": 9.0}})  # dirty
        history_data = load_bench(path)["history"]
        assert history_data["abc1234"]["a"]["median_ms"] == 1.0
        assert history_data["abc1234-dirty"]["a"]["median_ms"] == 9.0


def _synthetic_history(tmp_path) -> Path:
    path = tmp_path / "BENCH_engine.json"
    for label, speedup in (("c1", 2.0), ("c2", 2.2), ("c3", 1.1)):
        record_bucket(
            path,
            {
                FAST_CASE: {"speedup": speedup, "median_ms": 10.0 / speedup},
                "abs_case": {"median_ms": 100.0},
            },
            commit=label,
        )
    return path


class TestTrend:
    def test_text_dashboard(self, tmp_path):
        text = render_trend(load_bench(_synthetic_history(tmp_path)))
        assert "c1 c2 c3" in text
        assert FAST_CASE in text and "[speedup]" in text
        assert "abs_case" in text and "[median_ms]" in text
        assert "Δ vs prev -50.0%" in text  # 2.2 -> 1.1
        assert "p50" in text and "latest 1.10x" in text

    def test_markdown_dashboard(self, tmp_path):
        text = render_trend(load_bench(_synthetic_history(tmp_path)),
                            markdown=True)
        assert text.startswith("### Benchmark fleet trend")
        assert f"| {FAST_CASE} | speedup | 3 " in text
        assert "-50.0%" in text

    def test_empty_and_single_bucket(self, tmp_path):
        assert "no history" in render_trend({"history": {}})
        path = tmp_path / "BENCH_engine.json"
        record_bucket(path, {FAST_CASE: {"speedup": 2.0}}, commit="only")
        text = render_trend(load_bench(path))
        assert "single bucket" in text


class TestFleetEndToEnd:
    def test_quick_run_appends_commit_keyed_bucket(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        rc = main(["bench", "--cases", FAST_CASE, SIBLING_CASE,
                   "--repeats", "1", "--no-memory",
                   "--commit", "c1", "--json", str(path)])
        assert rc == 0
        data = load_bench(path)
        bucket = data["history"]["c1"]
        assert set(bucket) == {"_meta", FAST_CASE, SIBLING_CASE}
        stats = bucket[FAST_CASE]
        assert stats["identical"] is True
        assert stats["rounds"] > 0 and stats["speedup"] > 0
        assert bucket["_meta"]["tier"] == "quick"
        out = capsys.readouterr().out
        assert "no previous bucket" in out and "OK" in out

    def test_injected_slowdown_fails_gate_naming_case_and_engine(
            self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        assert main(["bench", "--cases", FAST_CASE, SIBLING_CASE,
                     "--repeats", "1", "--no-memory",
                     "--commit", "c1", "--json", str(path)]) == 0
        capsys.readouterr()
        rc = main(["bench", "--cases", FAST_CASE, SIBLING_CASE,
                   "--repeats", "1", "--no-memory",
                   "--commit", "c2", "--json", str(path),
                   "--inject-slowdown", f"{FAST_CASE}:200"])
        assert rc == 1
        out = capsys.readouterr().out
        assert f"FAIL: [speedup] {FAST_CASE} (engine=fast)" in out
        # both runs landed as separate buckets
        assert set(load_bench(path)["history"]) == {"c1", "c2"}

    def test_result_cache_entries_land_under_its_root(self, tmp_path,
                                                      monkeypatch):
        store = ResultCache(tmp_path / "store")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        run_fleet(select([FAST_CASE]), repeats=1, memory=False, cache=store)
        assert len(store) > 0
        assert list(cwd.iterdir()) == []


def _bench(path: Path, label: str, *cases: str, extra=()) -> int:
    return main(["bench", "--cases", *cases, "--repeats", "1", "--no-memory",
                 "--commit", label, "--json", str(path), *extra])


class TestPinnedGate:
    """The pinned cases on the committed-baseline Algorithm-1 instance:
    the fast⇄reference speedup floor and the overhead budgets."""

    def test_pinned_case_passes_on_healthy_engine(self, tmp_path, capsys):
        # lenient threshold: passes on any machine unless the fast tier
        # genuinely stopped being faster than the reference engine
        path = tmp_path / "BENCH_engine.json"
        for label in ("c1", "c2"):
            assert _bench(path, label, PINNED_CASE,
                          extra=("--threshold", "0.9")) == 0
        assert "gating against bucket 'c1'" in capsys.readouterr().out
        stats = load_bench(path)["history"]["c2"][PINNED_CASE]
        assert stats["identical"] is True
        assert (stats["rounds"], stats["tokens_sent"]) == (126, 3498)

    def test_pinned_case_fails_on_injected_slowdown(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        assert _bench(path, "c1", PINNED_CASE) == 0
        capsys.readouterr()
        assert _bench(path, "c2", PINNED_CASE, extra=(
            "--inject-slowdown", f"{PINNED_CASE}:300")) == 1
        assert f"FAIL: [speedup] {PINNED_CASE}" in capsys.readouterr().out

    def test_fails_on_unknown_case(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        with pytest.raises(SystemExit, match="no-such-case"):
            _bench(path, "c1", "no-such-case")
        assert not path.exists()

    def test_speedup_floor_is_per_case(self):
        results = [CaseResult(case, {"speedup": 0.7})
                   for case in select([PINNED_CASE, FAST_CASE])]
        previous = {result.name: {"speedup": 1.0} for result in results}
        violations = gate_fleet(results, previous)
        assert [(v.case, v.kind) for v in violations] == [
            (PINNED_CASE, "speedup")]
        assert "threshold 25%" in violations[0].message
        assert gate_fleet(results, previous, threshold=0.5) == []

    @pytest.mark.parametrize("obs", sorted(OVERHEAD_CASES))
    def test_overhead_case_within_budget(self, obs, tmp_path, monkeypatch):
        # generous budget: passes anywhere unless the instrumentation
        # became outright pathological relative to the plain run
        monkeypatch.setitem(OVERHEAD_BUDGETS, obs, 20.0)
        path = tmp_path / "BENCH_engine.json"
        assert _bench(path, "c1", OVERHEAD_CASES[obs]) == 0
        stats = load_bench(path)["history"]["c1"][OVERHEAD_CASES[obs]]
        assert stats["identical"] is True
        assert 0 < stats["overhead"] <= 20.0 and "speedup" not in stats
        assert (stats["rounds"], stats["tokens_sent"]) == (126, 3498)

    @pytest.mark.parametrize("obs", sorted(OVERHEAD_CASES))
    def test_overhead_case_fails_on_injected_overhead(self, obs, tmp_path,
                                                      capsys):
        case = OVERHEAD_CASES[obs]
        assert _bench(tmp_path / "BENCH_engine.json", "c1", case, extra=(
            "--inject-slowdown", f"{case}:300")) == 1
        assert f"FAIL: [overhead] {case}" in capsys.readouterr().out

    def test_equivalence_failure_prints_divergence_report(
            self, tmp_path, monkeypatch, capsys):
        """A fault on the vectorised tiers only fails the pinned case's
        equivalence gate, and the gate's report pinpoints it."""
        fault = PinpointFault(3, 5, 0, tiers=("fast",))
        healthy = matrix.regression_gate_scenario()
        monkeypatch.setattr(matrix, "regression_gate_scenario",
                            lambda: replace(healthy, link=fault.spec()))
        assert _bench(tmp_path / "BENCH_engine.json", "c1", PINNED_CASE) == 1
        out = capsys.readouterr().out
        assert f"FAIL: [equivalence] {PINNED_CASE}" in out
        assert "DIVERGENCE" in out
        assert "first diverging round: 3" in out
        assert "node 5" in out


class TestFleetHeartbeat:
    def test_heartbeats_bracket_every_case(self):
        events = []
        results = run_fleet(select([FAST_CASE]), repeats=1, memory=False,
                            heartbeat=events.append)
        assert len(results) == 1
        assert [(e["case"], e["status"]) for e in events] == [
            (FAST_CASE, "start"), (FAST_CASE, "done")]
        assert all(e["type"] == "case" for e in events)
        assert events[-1]["ms"] > 0

    def test_watchdog_flags_slow_case_without_killing_it(self):
        # a zero stall limit trips on every case; the case still finishes
        events = []
        results = run_fleet(select([FAST_CASE]), repeats=1, memory=False,
                            heartbeat=events.append, stall_after_ms=0.0)
        assert len(results) == 1 and results[0].stats["rounds"] > 0
        stalls = [e for e in events if e["status"] == "stall"]
        assert len(stalls) == 1  # flagged once, not once per poll
        assert stalls[0]["case"] == FAST_CASE
        assert stalls[0]["elapsed_ms"] >= 0.0
        assert stalls[0]["stall_after_ms"] == 0.0
        assert [e["status"] for e in events][-1] == "done"

    def test_watchdog_flags_case_faster_than_one_poll(self, monkeypatch):
        # a case finishing well inside the 50 ms poll is still flagged,
        # exactly once, when its done event arrives
        import repro.bench.runner as runner

        monkeypatch.setattr(runner, "_fleet_task",
                            lambda item: time.sleep(0.002) or item[0].name)
        cases = select([FAST_CASE, SIBLING_CASE])
        for _ in range(5):
            events = []
            results = run_fleet(cases, repeats=1, memory=False,
                                heartbeat=events.append, stall_after_ms=0.0)
            assert results == [FAST_CASE, SIBLING_CASE]
            stalls = [e["case"] for e in events if e["status"] == "stall"]
            assert stalls == [FAST_CASE, SIBLING_CASE]

    def test_cli_heartbeat_prints_case_lines(self, tmp_path, capsys):
        rc = main(["bench", "--cases", FAST_CASE, "--repeats", "1",
                   "--no-memory", "--no-gate", "--heartbeat",
                   "--json", str(tmp_path / "b.json")])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"[bench] case {FAST_CASE} start" in err
        assert f"[bench] case {FAST_CASE} done (" in err

    def test_cli_heartbeat_stall_line(self, tmp_path, capsys):
        rc = main(["bench", "--cases", FAST_CASE, "--repeats", "1",
                   "--no-memory", "--no-gate", "--heartbeat",
                   "--stall-after-ms", "1",
                   "--json", str(tmp_path / "b.json")])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"[bench] case {FAST_CASE} stall STALL:" in err

    def test_counter_drift_trips_gate_and_attaches_divergence(self, tmp_path,
                                                              capsys):
        results = run_fleet(select([FAST_CASE]), repeats=1, memory=False)
        stats = dict(results[0].stats)
        previous = {FAST_CASE: dict(stats, tokens_sent=stats["tokens_sent"] + 1)}
        assert [v.kind for v in gate_fleet(results, previous)] == ["counter"]
        # the CLI gate prints the engine diff for the drifted case
        path = tmp_path / "BENCH_engine.json"
        assert _bench(path, "c1", FAST_CASE) == 0
        data = load_bench(path)
        data["history"]["c1"][FAST_CASE]["tokens_sent"] += 1
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert _bench(path, "c2", FAST_CASE) == 1
        out = capsys.readouterr().out
        assert f"FAIL: [counter] {FAST_CASE}" in out
        # engines actually agree here, and the probe says so
        assert f"engine diff for {FAST_CASE}:" in out
        assert "recordings identical" in out

    def test_gate_passes_against_own_history(self, tmp_path):
        cases = select([FAST_CASE])
        baseline = run_fleet(cases, repeats=2, memory=False)
        previous = {r.name: dict(r.stats) for r in baseline}
        fresh = run_fleet(cases, repeats=2, memory=False)
        assert gate_fleet(fresh, previous, threshold=0.9) == []

    def test_list_needs_no_execution(self, capsys):
        assert main(["bench", "--list", "--full"]) == 0
        out = capsys.readouterr().out
        assert "budget_ms" in out
        assert FAST_CASE in out
        assert "algorithm1_benign_n160_fast_timeline" in out  # full-only

    def test_report_renders_from_two_buckets(self, tmp_path, capsys):
        path = _synthetic_history(tmp_path)
        assert main(["bench", "--report", "--json", str(path)]) == 0
        assert "c1 c2 c3" in capsys.readouterr().out

    def test_bad_inject_spec_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--cases", FAST_CASE, "--json",
                  str(tmp_path / "b.json"), "--inject-slowdown", "nocolon"])
        with pytest.raises(SystemExit):
            main(["bench", "--cases", FAST_CASE, "--json",
                  str(tmp_path / "b.json"),
                  "--inject-slowdown", "unknown_case:50"])
        with pytest.raises(SystemExit):
            main(["bench", "--cases", FAST_CASE, "--json",
                  str(tmp_path / "b.json"),
                  "--inject-envelope", "unknown_case:50"])


class TestEnvelopeGate:
    def test_benign_case_carries_envelope_columns(self):
        results = run_fleet(select([FAST_CASE]), repeats=1, memory=False)
        stats = results[0].stats
        assert stats["envelope_ok"] is True
        assert stats["envelope_tokens"] >= stats["tokens_sent"]
        for key, counter in (("envelope_ratio_rounds", "rounds"),
                             ("envelope_ratio_messages", "messages_sent"),
                             ("envelope_ratio_tokens", "tokens_sent")):
            assert 0 < stats[key] <= 1.0
            assert stats[key] == pytest.approx(
                stats[counter] / stats[f"envelope_{counter.split('_')[0]}"],
                abs=1e-4)

    def test_adversarial_case_has_no_envelope_gate(self):
        results = run_fleet(select(["flood-all_adversarial_n48_fast_timeline"]),
                            repeats=1, memory=False)
        assert "envelope_ok" not in results[0].stats

    def test_injected_excursion_fails_absolute_gate(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        rc = main(["bench", "--cases", FAST_CASE, "--repeats", "1",
                   "--no-memory", "--commit", "c1", "--json", str(path),
                   "--inject-envelope", f"{FAST_CASE}:100"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL: [envelope]" in out
        assert "exited the analytical envelope" in out
        # the injection scales ratios only: counters stay truthful
        stats = load_bench(path)["history"]["c1"][FAST_CASE]
        assert stats["tokens_sent"] <= stats["envelope_tokens"]
        assert stats["envelope_ratio_tokens"] > 1.0

    def test_ratio_drift_vs_previous_bucket_trips_gate(self):
        results = run_fleet(select([FAST_CASE]), repeats=1, memory=False)
        stats = dict(results[0].stats)
        previous = {FAST_CASE: dict(
            stats,
            envelope_ratio_tokens=stats["envelope_ratio_tokens"] / 2,
        )}
        violations = gate_fleet(results, previous)
        assert [v.kind for v in violations] == ["envelope"]
        assert "ratio drifted 100%" in violations[0].message
        # a wider allowance waves the same drift through
        assert gate_fleet(results, previous, envelope_drift=1.5) == []

    def test_trend_dashboard_shows_envelope_columns(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        record_bucket(path, {FAST_CASE: {
            "speedup": 2.0, "envelope_ratio_tokens": 0.62,
            "envelope_ok": True,
        }}, commit="c1")
        record_bucket(path, {FAST_CASE: {
            "speedup": 2.1, "envelope_ratio_tokens": 1.31,
            "envelope_ok": False,
        }}, commit="c2")
        text = render_trend(load_bench(path))
        assert "envelope: measured/predicted tokens 1.310  OUTSIDE" in text
        md = render_trend(load_bench(path), markdown=True)
        assert "| env ratio | in env |" in md
        assert "1.31" in md and "**NO**" in md

    def test_report_without_history_prints_message(self, tmp_path, capsys):
        """Satellite: an empty or missing history file yields a clear
        one-liner, not a traceback."""
        rc = main(["bench", "--report",
                   "--json", str(tmp_path / "missing.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no history buckets recorded yet" in out
        empty = tmp_path / "empty.json"
        empty.write_text('{"history": {}}')
        assert main(["bench", "--report", "--json", str(empty)]) == 0
        assert "no history buckets" in capsys.readouterr().out

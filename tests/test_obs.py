"""Run telemetry (repro.obs): timeline recording, engine integration,
registry-wide fastpath⇄reference timeline equivalence, serialization,
and JSONL export."""

import json

import numpy as np
import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.core.algorithm2 import make_algorithm2_factory
from repro.experiments.runner import execute
from repro.experiments.scenarios import (
    default_kind,
    hinet_one_scenario,
    one_interval_scenario,
    scenario_for,
)
from repro.experiments.runner import RunRecord
from repro.io import run_record_from_dict, run_record_to_dict
from repro.obs import OBS_LEVELS, Profiler, RunTimeline, validate_obs, write_events
from repro.obs.observer import SendTable
from repro.registry import all_specs
from repro.sim.engine import RunResult, SynchronousEngine
from repro.sim.metrics import Metrics


class TestValidateObs:
    def test_levels(self):
        assert OBS_LEVELS == ("off", "timeline", "trace", "record", "profile")
        for level in OBS_LEVELS:
            assert validate_obs(level) == level

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="obs"):
            validate_obs("verbose")

    def test_engine_validates(self):
        with pytest.raises(ValueError, match="obs"):
            SynchronousEngine(obs="bogus")


class TestProfiler:
    def test_sections_accumulate(self):
        prof = Profiler()
        prof.add("send", 0.25)
        prof.add("send", 0.5)
        assert prof.seconds == {"send": 0.75}

    def test_section_context_manager_times(self):
        prof = Profiler()
        with prof.section("outer"):
            with prof.section("inner"):
                pass
        assert prof.seconds["outer"] >= prof.seconds["inner"] >= 0.0


class TestRunTimeline:
    def _timeline(self):
        # node 0 heads, nodes 1-4 are gateways
        roles = np.array([0, 1, 1, 1, 1])
        table = SendTable()
        table.open(roles)
        table.bill(np.array([0, 0]), np.array([2, 3]), 0, 0)
        table.open(roles)
        # gateways first send in round 1
        table.bill(np.array([1, 0, 2, 3, 4]), np.array([1, 3, 1, 1, 1]), 0, 0)
        return table.timeline(coverage=[4, 9], nodes_complete=[0, 2])

    def test_round_counters(self):
        tl = self._timeline()
        assert tl.rounds == 2
        assert tl.tokens == [5, 7]
        assert tl.messages == [2, 5]
        assert tl.coverage == [4, 9]
        assert tl.nodes_complete == [0, 2]

    def test_late_role_is_zero_backfilled(self):
        tl = self._timeline()
        assert tl.role_messages == {"head": [2, 1], "gateway": [0, 4]}
        assert tl.role_tokens == {"head": [5, 3], "gateway": [0, 4]}

    def test_zero_sends_are_not_recorded(self):
        table = SendTable()
        table.open(None)
        table.bill(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0, 0)
        tl = table.timeline([0], [0])
        assert tl.role_messages == {} and tl.tokens == [0]

    def test_populations_backfilled_and_carried(self):
        # all three columns appear at the first round with roles, zeros
        # before it and on later rounds without roles
        table = SendTable()
        table.open(None)
        roles = np.array([0, 0, 0, 2, 2, 2, 2, 2, 2, 2])
        table.open(roles)
        table.open(roles)
        table.open(None)
        tl = table.timeline([0] * 4, [0] * 4)
        assert tl.populations == {
            "head": [0, 3, 3, 0], "gateway": [0, 0, 0, 0],
            "member": [0, 7, 7, 0],
        }
        assert list(tl.populations) == ["head", "gateway", "member"]

    def test_profile_excluded_from_equality(self):
        a, b = self._timeline(), self._timeline()
        a.profile["send"] = 1.23
        assert a == b

    def test_phases_aggregates_in_blocks(self):
        tl = self._timeline()
        rows = tl.phases(2)
        assert len(rows) == 1
        row = rows[0]
        assert row["rounds"] == "0..1"
        assert row["messages"] == 7 and row["tokens"] == 12
        assert row["coverage_end"] == 9 and row["nodes_complete_end"] == 2
        assert row["head_msgs"] == 3 and row["gateway_msgs"] == 4

    def test_phases_partial_tail(self):
        rows = self._timeline().phases(3)  # 2 rounds, T=3 → one short phase
        assert len(rows) == 1 and rows[0]["rounds"] == "0..1"

    def test_phases_rejects_bad_T(self):
        with pytest.raises(ValueError, match="T"):
            self._timeline().phases(0)

    def test_events_one_per_round(self):
        events = list(self._timeline().events())
        assert [e["round"] for e in events] == [0, 1]
        # prefix-stable encoding: only roles that actually sent appear,
        # so live streaming and post-hoc export produce identical dicts
        assert events[0]["by_role"] == {
            "head": {"messages": 2, "tokens": 5},
        }
        assert events[0]["populations"] == {"gateway": 4, "head": 1, "member": 0}

    def test_round_event_matches_events(self):
        tl = self._timeline()
        assert [tl.round_event(r) for r in range(tl.rounds)] == list(tl.events())


class TestWriteEvents:
    def test_jsonl_layout_and_cross_check(self, tmp_path):
        tl = TestRunTimeline()._timeline()
        path = tmp_path / "events.jsonl"
        lines = write_events(path, tl, run_info={"algorithm": "x"},
                             summary={"tokens_sent": 12})
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == len(rows) == tl.rounds + 2
        assert rows[0]["type"] == "run" and rows[0]["algorithm"] == "x"
        assert rows[-1]["type"] == "summary"
        assert rows[-1]["tokens"] == rows[-1]["tokens_sent"] == 12
        assert sum(r["tokens"] for r in rows if r["type"] == "round") == 12

    def test_profile_lands_in_footer(self, tmp_path):
        tl = RunTimeline(coverage=[0], nodes_complete=[0], tokens=[0],
                         messages=[0])
        tl.profile["send"] = 0.5
        path = tmp_path / "e.jsonl"
        write_events(path, tl)
        footer = json.loads(path.read_text().splitlines()[-1])
        assert footer["profile_ms"] == {"send": 500.0}

    def test_unserialisable_summary_leaves_no_file(self, tmp_path):
        tl = TestRunTimeline()._timeline()
        path = tmp_path / "e.jsonl"
        with pytest.raises(ValueError, match="could not be written"):
            write_events(path, tl, summary={"bad": object()})
        assert not path.exists()

    def test_unserialisable_run_info_leaves_no_file(self, tmp_path):
        tl = TestRunTimeline()._timeline()
        path = tmp_path / "e.jsonl"
        with pytest.raises(TypeError):
            write_events(path, tl, run_info={"bad": object()})
        assert not path.exists()


def _run_both(scenario, factory, max_rounds, obs="timeline"):
    ref = SynchronousEngine(obs=obs).run(
        scenario.trace, factory, scenario.k, scenario.initial, max_rounds
    )
    fast = SynchronousEngine(engine="fast", obs=obs).run(
        scenario.trace, factory, scenario.k, scenario.initial, max_rounds
    )
    return ref, fast


class TestEngineIntegration:
    def test_timeline_consistent_with_metrics(self):
        scenario = hinet_one_scenario(n0=20, theta=6, k=3, seed=3, verify=False)
        res = SynchronousEngine().run(
            scenario.trace, make_algorithm2_factory(M=scenario.n - 1),
            scenario.k, scenario.initial, scenario.n - 1,
        )
        tl, m = res.timeline, res.metrics
        assert tl.rounds == m.rounds
        assert sum(tl.tokens) == m.tokens_sent
        assert sum(tl.messages) == m.messages_sent
        assert tl.coverage == m.per_round_coverage
        assert tl.tokens == m.per_round_tokens
        for role in ("head", "gateway", "member"):
            assert sum(tl.role_tokens.get(role, [])) == m.role_tokens(role)
            assert sum(tl.role_messages.get(role, [])) == m.role_messages(role)
        # every node complete exactly when the run completes
        assert tl.nodes_complete[m.completion_round - 1] == scenario.n

    def test_populations_recorded_for_clustered_runs(self):
        scenario = hinet_one_scenario(n0=20, theta=6, k=3, seed=3, verify=False)
        ref, fast = _run_both(
            scenario, make_algorithm2_factory(M=scenario.n - 1), scenario.n - 1
        )
        for res in (ref, fast):
            pops = res.timeline.populations
            assert set(pops) == {"head", "gateway", "member"}
            # roles partition the nodes in every round
            for r in range(res.timeline.rounds):
                assert sum(col[r] for col in pops.values()) == scenario.n
        assert ref.timeline == fast.timeline

    def test_obs_off_records_nothing(self):
        scenario = one_interval_scenario(n0=12, k=3, seed=1, verify=False)
        ref, fast = _run_both(scenario, make_flood_all_factory(), 11, obs="off")
        assert ref.timeline is None and fast.timeline is None

    def test_profile_sections_recorded_both_engines(self):
        scenario = one_interval_scenario(n0=12, k=3, seed=1, verify=False)
        ref, fast = _run_both(
            scenario, make_flood_all_factory(), 11, obs="profile"
        )
        # one stage vocabulary on both tiers
        stages = {"topology", "send", "deliver", "receive", "bookkeeping"}
        for res in (ref, fast):
            prof = res.timeline.profile
            assert set(prof) == stages
            assert all(dt >= 0.0 for dt in prof.values())
        # wall times differ but never break timeline equality
        assert ref.timeline == fast.timeline


def _auto_scenario(spec, seed=5):
    return scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=seed)


class TestRegistryWideTimelineEquivalence:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_fast_and_reference_timelines_identical(self, spec):
        """Every registered algorithm: identical coverage timelines on a
        seeded scenario, whether the fast path handles it natively or
        falls back to the reference loop."""
        scenario = _auto_scenario(spec)
        overrides = {"seed": 9} if spec.seeded else {}
        ref = execute(spec, scenario, engine="reference", **overrides)
        fast = execute(spec, scenario, engine="fast", **overrides)
        assert ref.result.timeline is not None
        assert fast.result.timeline == ref.result.timeline
        assert fast.result.metrics == ref.result.metrics


def _record_of(timeline):
    """A hand-built run record carrying ``timeline``."""
    metrics = Metrics(rounds=timeline.rounds,
                      per_round_tokens=list(timeline.tokens),
                      per_round_coverage=list(timeline.coverage))
    result = RunResult(n=5, k=3, metrics=metrics, outputs={}, complete=False,
                       timeline=timeline)
    return RunRecord(algorithm="synthetic", scenario="hand-built", n=5, k=3,
                     bound_rounds=4, rounds=timeline.rounds,
                     completion_round=None, tokens_sent=sum(timeline.tokens),
                     messages_sent=sum(timeline.messages), complete=False,
                     result=result)


class TestTimelineSerialization:
    def test_roundtrip(self):
        """A timeline rides the run-record codec: every column, and the
        profile sections, which equality ignores."""
        tl = TestRunTimeline()._timeline()
        tl.profile["send"] = 0.125
        encoded = json.loads(json.dumps(run_record_to_dict(_record_of(tl))))
        back = run_record_from_dict(encoded).result.timeline
        assert back == tl
        assert back.profile == tl.profile  # == ignores profile; check it too
        assert list(back.role_messages) == sorted(tl.role_messages)

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            run_record_from_dict({"format": "repro-timeline", "version": 1})

    def test_rides_through_result_cache(self, tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.registry import get_spec

        spec = get_spec("algorithm2")
        scenario = hinet_one_scenario(n0=16, theta=5, k=3, seed=2, verify=False)
        store = ResultCache(tmp_path)
        fresh = execute(spec, scenario, cache=store)
        replay = execute(spec, scenario, cache=store)
        assert replay.result.timeline == fresh.result.timeline
        assert replay.result.timeline is not fresh.result.timeline  # from disk

    def test_off_and_timeline_records_never_cross(self, tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.registry import get_spec

        spec = get_spec("algorithm2")
        scenario = hinet_one_scenario(n0=16, theta=5, k=3, seed=2, verify=False)
        store = ResultCache(tmp_path)
        execute(spec, scenario, cache=store, obs="off")
        record = execute(spec, scenario, cache=store, obs="timeline")
        assert record.result.timeline is not None


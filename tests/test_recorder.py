"""Deterministic record/replay (repro.obs.recorder) and run differencing
(repro.obs.diff): time-travel reconstruction, registry-wide fastpath⇄
reference recording bit-identity, divergence bisection (incl. an
injected ``PinpointFault``), Chrome trace export, serialization with
schema versioning, and the result-cache ride."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.flooding import make_flood_all_factory
from repro.core.algorithm1 import make_algorithm1_factory
from repro.core.algorithm2 import make_algorithm2_factory
from repro.experiments.runner import execute
from repro.experiments.scenarios import (
    default_kind,
    hinet_interval_scenario,
    hinet_one_scenario,
    one_interval_scenario,
    scenario_for,
)
from repro.io import (
    load_recording,
    recording_from_dict,
    recording_to_dict,
    run_record_from_dict,
    run_record_to_dict,
    save_recording,
)
from repro.obs import (
    EVENTS_SCHEMA_VERSION,
    MessageRecord,
    RoundDelta,
    RunRecording,
    diff_engines,
    diff_recordings,
    read_events,
    to_chrome_trace,
    write_events,
)
from repro.obs.timeline import RunTimeline
from repro.registry import all_specs, get_spec
from repro.sim.engine import SynchronousEngine
from repro.sim.linkmodel import PinpointFault, link_from_spec


def _delta(gained=(), lost=(), messages=(), roles=None, head_of=None):
    return RoundDelta(gained=tuple(gained), lost=tuple(lost),
                      messages=tuple(messages), roles=roles, head_of=head_of)


def _toy_recording():
    """3 nodes, 2 tokens; node 2 gains then *loses* token 0 (loss path)."""
    return RunRecording(
        n=3, k=2,
        initial={0: (0,), 1: (1,)},
        rounds=[
            _delta(gained=((1, (0,)), (2, (0,))),
                   messages=(MessageRecord(0, "b", -1, (0,), 1),)),
            _delta(gained=((0, (1,)),), lost=((2, (0,)),),
                   messages=(MessageRecord(1, "u", 0, (1,), 1),)),
        ],
    )


class TestRunRecording:
    def test_state_at_reconstructs_gains_and_losses(self):
        rec = _toy_recording()
        assert rec.state_at(-1) == {0: frozenset({0}), 1: frozenset({1}),
                                    2: frozenset()}
        assert rec.state_at(0) == {0: frozenset({0}), 1: frozenset({0, 1}),
                                   2: frozenset({0})}
        assert rec.state_at(1) == {0: frozenset({0, 1}),
                                   1: frozenset({0, 1}), 2: frozenset()}

    def test_node_state_matches_state_at(self):
        rec = _toy_recording()
        for r in range(-1, rec.rounds_recorded):
            full = rec.state_at(r)
            for v in range(rec.n):
                assert rec.node_state(r, v) == full[v]

    def test_coverage_at(self):
        rec = _toy_recording()
        assert [rec.coverage_at(r) for r in (-1, 0, 1)] == [2, 4, 4]

    def test_out_of_range_rounds_raise(self):
        rec = _toy_recording()
        with pytest.raises(IndexError, match="outside recorded range"):
            rec.state_at(2)
        with pytest.raises(IndexError, match="outside recorded range"):
            rec.state_at(-2)
        with pytest.raises(IndexError, match="outside recorded range"):
            rec.round_delta(-1)
        with pytest.raises(IndexError, match="node 9"):
            rec.node_state(0, 9)

    def test_states_yields_independent_snapshots(self):
        rec = _toy_recording()
        snaps = dict(rec.states())
        snaps[0][0] = frozenset({99})
        assert rec.state_at(0)[0] == frozenset({0})

    def test_prefix_digests_monotone_alignment(self):
        a, b = _toy_recording(), _toy_recording()
        assert a.prefix_digests() == b.prefix_digests()
        assert a.fingerprint() == b.fingerprint()
        # perturb the *last* round only: prefixes agree up to round 0
        b.rounds[1] = _delta(gained=((0, (1,)),))
        da, db = a.prefix_digests(), b.prefix_digests()
        assert da[0] == db[0] and da[1] != db[1]

    def test_meta_excluded_from_equality(self):
        a, b = _toy_recording(), _toy_recording()
        a.meta["engine"] = "fast"
        b.meta["engine"] = "reference"
        assert a == b


def _auto_scenario(spec, seed=5):
    return scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=seed)


class TestRegistryWideRecordingIdentity:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_fast_and_reference_recordings_bit_identical(self, spec):
        """Every registered algorithm: obs="record" produces the same
        RunRecording on both engines, and the final reconstructed state
        equals the run's outputs."""
        scenario = _auto_scenario(spec)
        overrides = {"seed": 9} if spec.seeded else {}
        ref = execute(spec, scenario, engine="reference", obs="record",
                      **overrides)
        fast = execute(spec, scenario, engine="fast", obs="record",
                       **overrides)
        rec_ref, rec_fast = ref.result.recording, fast.result.recording
        assert rec_ref is not None and rec_fast is not None
        assert rec_fast == rec_ref
        assert rec_fast.fingerprint() == rec_ref.fingerprint()
        assert rec_fast.rounds_recorded == fast.result.metrics.rounds
        last = rec_fast.rounds_recorded - 1
        assert rec_fast.state_at(last) == fast.result.outputs
        # spot check: a mid-run state is internally consistent
        mid = last // 2
        state = rec_fast.state_at(mid)
        assert set(state) == set(range(scenario.n))
        assert rec_fast.coverage_at(mid) <= rec_fast.coverage_at(last)


def _exhaustive_cases():
    flat = one_interval_scenario(n0=14, k=3, seed=2, verify=False)
    hinet = hinet_one_scenario(n0=20, theta=6, k=3, seed=3, verify=False)
    interval = hinet_interval_scenario(n0=20, theta=6, k=3, alpha=3, L=2,
                                       seed=3, verify=False)
    t, phases = int(interval.params["T"]), int(interval.params["phases"])
    return [
        pytest.param(flat, make_flood_all_factory(), 13, id="flood-all"),
        pytest.param(hinet, make_algorithm2_factory(M=hinet.n - 1),
                     hinet.n - 1, id="algorithm2"),
        pytest.param(interval,
                     make_algorithm1_factory(T=t, M=t * phases),
                     t * phases, id="algorithm1"),
    ]


class TestReconstructionMatchesLiveState:
    @pytest.mark.parametrize("scenario, factory, max_rounds",
                             _exhaustive_cases())
    def test_every_round_matches_live_engine_state(self, scenario, factory,
                                                   max_rounds):
        """Step the reference engine round by round; after every round the
        partially-built recording must reconstruct the engine's *live*
        node states exactly."""
        active = SynchronousEngine(obs="record").start(
            scenario.trace, factory, scenario.k, scenario.initial, max_rounds
        )
        while True:
            more = active.step()
            recording = active.observer.recorder.recording
            rounds = recording.rounds_recorded
            if rounds:
                live = {v: frozenset(active.algorithms[v].TA)
                        for v in range(scenario.n)}
                assert recording.state_at(rounds - 1) == live
            if not more:
                break
        res = active.finish()
        assert res.recording.rounds_recorded == res.metrics.rounds > 0
        assert res.recording.state_at(res.metrics.rounds - 1) == res.outputs


class TestHypothesisRoundTrip:
    @settings(max_examples=6, deadline=None)
    @given(n0=st.integers(min_value=8, max_value=24),
           k=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=1000))
    def test_reconstruction_equals_knowledge_snapshots(self, n0, k, seed):
        """For arbitrary scenario parameters: the recording's state_at(r)
        equals the live per-round knowledge snapshot for every r."""
        scenario = one_interval_scenario(n0=n0, k=k, seed=seed, verify=False)
        active = SynchronousEngine(obs="record").start(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, scenario.n - 1,
        )
        knowledge = []
        more = True
        while more:
            more = active.step()
            knowledge.append({v: frozenset(a.TA)
                              for v, a in active.algorithms.items()})
        rec = active.finish().recording
        assert rec.rounds_recorded == len(knowledge)
        for r, state in enumerate(knowledge):
            assert rec.state_at(r) == state, f"round {r}"


class TestColumnLayout:
    """A recording is integer columns while it is recorded, in the
    result cache and in its file; round views are built only on read."""

    def test_no_round_view_built_while_recording_or_on_a_hit(
        self, tmp_path, monkeypatch
    ):
        import repro.obs.recorder as recorder
        from repro.experiments.cache import ResultCache

        def forbidden(*args, **kwargs):
            raise AssertionError("a round view was built")

        spec = get_spec("algorithm2")
        scenario = _auto_scenario(spec)
        store = ResultCache(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(recorder, "RoundDelta", forbidden)
            patch.setattr(recorder, "MessageRecord", forbidden)
            fresh = execute(spec, scenario, cache=store, obs="record")
            replay = execute(spec, scenario, cache=store, obs="record")
            assert replay.result.recording == fresh.result.recording
        assert replay.result.recording.fingerprint() == \
            fresh.result.recording.fingerprint()

    def test_entry_and_file_hold_no_per_round_list(self, tmp_path):
        """The entry's header keeps the recording's scalars; its columns,
        which a ``record --out`` file holds too, are in the block."""
        from repro.experiments.cache import ResultCache

        spec = get_spec("algorithm2")
        store = ResultCache(tmp_path / "cache")
        recording = execute(spec, _auto_scenario(spec), cache=store,
                            obs="record").result.recording
        (entry,) = (tmp_path / "cache").glob("*/*.json")
        record = json.loads(entry.read_text())["record"]
        assert sorted(record["result"]["recording"]) == ["k", "meta", "n"]
        names = [name for name, _ in recording.columns()]
        assert set(names) <= {name for name, _ in record["columns"]}
        data = json.loads(save_recording(recording, tmp_path / "r.json").read_text())
        assert [name for name, _ in data["columns"]] == names
        assert not [key for key, value in data.items()
                    if isinstance(value, list) and key != "columns"]

    def test_rounds_view_slices_and_iterates(self):
        scenario = one_interval_scenario(n0=10, k=2, seed=4, verify=False)
        rec = SynchronousEngine(obs="record").run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 12
        ).recording
        rounds = rec.rounds
        assert len(rounds) == rec.rounds_recorded
        assert list(rounds)[0] == rounds[0]
        assert rounds[-1] == rec.round_delta(rec.rounds_recorded - 1)
        assert rounds[:2] == list(rounds)[:2]
        assert rounds != list(rounds)[:-1]

    def test_recording_pickles_and_round_trips(self):
        """Recordings cross process boundaries (``parallel_map``
        workers) by pickle and files by the dict codec, unchanged."""
        import pickle

        scenario = one_interval_scenario(n0=10, k=2, seed=4, verify=False)
        rec = SynchronousEngine(obs="record").run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 12
        ).recording
        for back in (pickle.loads(pickle.dumps(rec)),
                     recording_from_dict(recording_to_dict(rec))):
            assert back == rec
            assert back.fingerprint() == rec.fingerprint()
            assert list(back.rounds) == list(rec.rounds)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 3),
                              st.lists(st.integers(0, 69), max_size=4),
                              st.integers(0, 2)), max_size=12))
    def test_message_order_matches_sorted_records(self, rows):
        """The recorder's vectorised sort gives each round's messages in
        ``sorted(MessageRecord …)`` order, ties on sender and dest
        included; zero-cost sends are left out."""
        from repro.obs.observer import pack_rows
        from repro.obs.recorder import RunRecorder

        recorder = RunRecorder(4, 70, {})
        recorder.begin_round(None, None)
        recorder.record_sends(
            *(np.array([row[i] for row in rows], dtype=np.int64) for i in (0, 1)),
            pack_rows([row[2] for row in rows], 70),
            np.array([row[3] for row in rows], dtype=np.int64),
        )
        recorder.end_round()
        assert list(recorder.recording.round_delta(0).messages) == sorted(
            MessageRecord(s, "b" if d < 0 else "u", d, tuple(sorted(set(t))), c)
            for s, d, t, c in rows if c
        )

    def test_hand_built_rounds_round_trip_through_the_columns(self):
        rec = _toy_recording()
        assert list(rec.rounds) == list(_toy_recording().rounds)
        assert rec.rounds[1].messages == (MessageRecord(1, "u", 0, (1,), 1),)
        assert rec.rounds[-1] == rec.round_delta(1)
        back = recording_from_dict(recording_to_dict(rec))
        assert list(back.rounds) == list(rec.rounds)
        assert back.fingerprint() == rec.fingerprint()
        with pytest.raises(ValueError, match="disagrees"):
            RunRecording(n=2, k=1, rounds=[_delta(
                messages=(MessageRecord(0, "u", -1, (0,), 1),))])


class TestDiffRecordings:
    def test_identical(self):
        report = diff_recordings(_toy_recording(), _toy_recording())
        assert report.identical and report.first_round is None
        assert "identical" in report.format()
        assert report.to_dict()["identical"] is True

    def test_incomparable_scenarios_raise(self):
        a = _toy_recording()
        wrong_nk = RunRecording(n=4, k=2)
        with pytest.raises(ValueError, match="different scenarios"):
            diff_recordings(a, wrong_nk)
        wrong_initial = _toy_recording()
        wrong_initial.initial = {0: (1,), 1: (0,)}
        with pytest.raises(ValueError, match="initial"):
            diff_recordings(a, wrong_initial)

    def test_length_mismatch(self):
        a, b = _toy_recording(), _toy_recording()
        b.rounds.append(_delta())
        report = diff_recordings(a, b, label_a="short", label_b="long")
        assert report.first_round == 2 and report.reason == "length"
        assert report.rounds_a == 2 and report.rounds_b == 3

    def test_bisection_pinpoints_perturbed_round(self):
        base = SynchronousEngine(obs="record").run(
            *_run_args(one_interval_scenario(n0=16, k=3, seed=4,
                                             verify=False))
        ).recording
        assert base.rounds_recorded >= 6
        for target in (0, 3, base.rounds_recorded - 1):
            other = RunRecording(n=base.n, k=base.k,
                                 initial=dict(base.initial),
                                 rounds=list(base.rounds))
            old = other.rounds[target]
            # a unicast to a node id outside the instance can never occur
            # in the base recording, so it is unique to the perturbed side
            other.rounds[target] = _delta(
                gained=old.gained, lost=old.lost,
                messages=old.messages
                + (MessageRecord(0, "u", base.n + 7, (0,), 1),),
                roles=old.roles, head_of=old.head_of,
            )
            report = diff_recordings(base, other)
            assert report.first_round == target, target
            assert "messages" in report.reason
            assert report.messages_only_b and not report.messages_only_a

    def test_state_divergence_names_nodes_and_phase(self):
        a, b = _toy_recording(), _toy_recording()
        a.meta["phase_length"] = 2
        b.rounds[1] = _delta(gained=((0, (1,)), (2, (1,))),
                             lost=b.rounds[1].lost,
                             messages=b.rounds[1].messages)
        report = diff_recordings(a, b, label_a="x", label_b="y")
        assert report.first_round == 1 and "state" in report.reason
        assert report.phase == 0 and report.phase_length == 2
        assert [d.node for d in report.nodes] == [2]
        assert report.nodes[0].only_b == (1,)
        text = report.format()
        assert "node 2" in text and "first diverging round: 1" in text


class TestFastpathFaultHook:
    SCENARIO = dict(n0=20, theta=6, k=3, seed=3, verify=False)

    def test_fault_pinpointed_by_diff(self):
        """An injected single-bit fault in the fast path at round 2, node
        1 is pinpointed to exactly that round and node."""
        scenario = hinet_one_scenario(**self.SCENARIO)
        factory = make_algorithm2_factory(M=scenario.n - 1)
        fault = PinpointFault(2, 1, 0, tiers=("fast", "columnar"))
        fast = SynchronousEngine(engine="fast", obs="record", link=fault).run(
            scenario.trace, factory, scenario.k, scenario.initial,
            scenario.n - 1,
        )
        # the fault targets the vectorised tiers only
        ref = SynchronousEngine(obs="record", link=fault).run(
            scenario.trace, factory, scenario.k, scenario.initial,
            scenario.n - 1,
        )
        report = diff_recordings(fast.recording, ref.recording,
                                 label_a="fast", label_b="reference")
        assert not report.identical
        assert report.first_round == 2
        assert 1 in {d.node for d in report.nodes}
        assert "state" in report.reason

    def test_diff_engines_catches_fault(self):
        spec = get_spec("algorithm2")
        fault = PinpointFault(1, 0, 1, tiers=("fast", "columnar"))
        scenario = replace(_auto_scenario(spec), link=fault.spec())
        report = diff_engines(spec, scenario)
        assert not report.identical and report.first_round == 1
        assert report.label_a == "fast" and report.label_b == "reference"

    def test_diff_engines_identical_without_fault(self):
        spec = get_spec("algorithm1")
        report = diff_engines(spec, _auto_scenario(spec))
        assert report.identical

    def test_malformed_fault_spec_raises(self):
        """A fault naming an unknown tier is rejected up front, whether
        built directly or decoded from a scenario's link spec."""
        with pytest.raises(ValueError, match="unknown engine tier"):
            PinpointFault(2, 1, 0, tiers=("fast", "gpu"))
        spec = {"kind": "pinpoint-fault", "round": 2, "node": 1, "token": 0,
                "tiers": ["gpu"]}
        with pytest.raises(ValueError, match="unknown engine tier"):
            link_from_spec(spec)


def _run_args(scenario):
    return (scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, scenario.n - 1)


class TestChromeTrace:
    def _recorded(self):
        spec = get_spec("algorithm2")
        return execute(spec, _auto_scenario(spec), obs="record").result

    def test_shape_and_ordering(self):
        res = self._recorded()
        trace = to_chrome_trace(res.recording, timeline=res.timeline)
        events = trace["traceEvents"]
        assert events and trace["displayTimeUnit"] == "ms"
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event), event
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        json.dumps(trace)  # must be valid JSON end to end

    def test_event_kinds_present(self):
        res = self._recorded()
        trace = res.recording.to_chrome_trace(timeline=res.timeline)
        by_ph = {}
        for e in trace["traceEvents"]:
            by_ph.setdefault(e["ph"], []).append(e)
        assert len([e for e in by_ph["X"]
                    if e["name"].startswith("round ")]) == \
            res.recording.rounds_recorded
        # phase slices: execute() stamped phase_length into meta
        assert any(e["name"].startswith("phase ") for e in by_ph["X"])
        assert by_ph["i"]  # first-learn instants
        counters = {e["name"] for e in by_ph["C"]}
        assert "coverage" in counters
        track_names = {e["args"]["name"] for e in by_ph["M"]}
        assert {"rounds", "first learns"} <= track_names

    def test_counter_tracks_coverage_curve(self):
        res = self._recorded()
        trace = to_chrome_trace(res.recording)
        pairs = [e["args"]["pairs"] for e in trace["traceEvents"]
                 if e["ph"] == "C" and e["name"] == "coverage"]
        last = res.recording.rounds_recorded - 1
        assert pairs[-1] == res.recording.coverage_at(last)
        assert pairs == sorted(pairs)  # flooding never loses pairs

    def test_timeline_only_export(self):
        tl = RunTimeline(
            coverage=[4], nodes_complete=[0], tokens=[5], messages=[2],
            role_messages={"head": [2]}, role_tokens={"head": [5]},
        )
        trace = to_chrome_trace(timeline=tl)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_requires_some_input(self):
        with pytest.raises(ValueError, match="recording and/or a timeline"):
            to_chrome_trace()


class TestRecordingSerialization:
    def test_roundtrip_preserves_equality_and_meta(self):
        rec = _toy_recording()
        rec.meta.update({"algorithm": "toy", "phase_length": 2})
        back = recording_from_dict(recording_to_dict(rec))
        assert back == rec
        assert back.meta["phase_length"] == 2
        assert back.fingerprint() == rec.fingerprint()

    def test_save_load(self, tmp_path):
        path = tmp_path / "rec.json"
        save_recording(_toy_recording(), path)
        assert load_recording(path) == _toy_recording()

    def test_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            recording_from_dict({"format": "something-else", "version": 1})

    def test_rejects_future_schema_version(self):
        data = recording_to_dict(_toy_recording())
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version 99"):
            recording_from_dict(data)

    def test_missing_schema_version_is_backward_compatible(self):
        data = recording_to_dict(_toy_recording())
        del data["schema_version"]
        assert recording_from_dict(data) == _toy_recording()

    def test_rides_through_run_result(self):
        """A recording rides a run record's result through its codec."""
        spec = get_spec("algorithm2")
        record = execute(spec, _auto_scenario(spec), obs="record")
        res = record.result
        back = run_record_from_dict(
            json.loads(json.dumps(run_record_to_dict(record)))
        ).result
        assert back.recording == res.recording
        assert back.recording.meta == res.recording.meta

    def test_rides_through_result_cache(self, tmp_path):
        from repro.experiments.cache import ResultCache

        spec = get_spec("algorithm2")
        scenario = _auto_scenario(spec)
        store = ResultCache(tmp_path)
        fresh = execute(spec, scenario, cache=store, obs="record")
        replay = execute(spec, scenario, cache=store, obs="record")
        assert replay.result.recording == fresh.result.recording
        assert replay.result.recording is not fresh.result.recording
        # cached replays keep their stamped meta
        assert replay.result.recording.meta["engine"] == "fast"


class TestEventsSchemaVersion:
    def _events_path(self, tmp_path):
        tl = RunTimeline(
            coverage=[4], nodes_complete=[0], tokens=[5], messages=[2],
            role_messages={"head": [2]}, role_tokens={"head": [5]},
        )
        path = tmp_path / "events.jsonl"
        write_events(path, tl, run_info={"algorithm": "x"},
                     summary={"tokens_sent": 5})
        return path

    def test_header_carries_schema_version(self, tmp_path):
        path = self._events_path(tmp_path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema_version"] == EVENTS_SCHEMA_VERSION == 1

    def test_read_events_roundtrip(self, tmp_path):
        rows = read_events(self._events_path(tmp_path))
        assert rows[0]["type"] == "run" and rows[-1]["type"] == "summary"

    def test_read_events_rejects_future_version(self, tmp_path):
        path = self._events_path(tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="schema_version 99"):
            read_events(path)

    def test_read_events_names_file_and_line_of_a_torn_event(self, tmp_path):
        path = self._events_path(tmp_path)
        text = path.read_text()
        lines = text.splitlines()
        # cut inside the last event, as an interrupted writer leaves it
        path.write_text(text[: len(text) - len(lines[-1]) // 2 - 1])
        with pytest.raises(ValueError) as err:
            read_events(path)
        assert str(path) in str(err.value)
        assert f"line {len(lines)}" in str(err.value)
        assert not isinstance(err.value, json.JSONDecodeError)

    def test_read_events_accepts_versionless_header(self, tmp_path):
        path = self._events_path(tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["schema_version"]
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert read_events(path)[0]["type"] == "run"

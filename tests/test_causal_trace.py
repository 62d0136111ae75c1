"""Causal provenance tracing (repro.obs.trace): recording semantics,
provenance chains and hop accounting, registry-wide fastpath⇄reference
bit-identity of the recorded traces, serialization, and the
`repro explain` CLI surface."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import cli
from repro.experiments.runner import execute
from repro.experiments.scenarios import default_kind, scenario_for
from repro.io import run_record_from_dict, run_record_to_dict
from repro.obs import ORIGIN_ROLE, CausalTrace
from repro.obs.observer import pack_rows, rows_tokens
from repro.obs.trace import first_learns
from repro.registry import all_specs


def _sample_trace():
    """0 originates token 0; chain 0 -> 1 -> 2, plus 3 learning from 1."""
    c = CausalTrace(n=4, k=1, phase_length=2)
    c.record_origin(0, 0)
    c.record_learn(1, 0, 0, sender=0, sender_role="head")
    c.record_learn(2, 0, 2, sender=1, sender_role="gateway")
    c.record_learn(3, 0, 3, sender=1, sender_role="gateway")
    return c


def _first_learns_loop(gained, deliveries):
    """The canonical rule, one (node, token) pair at a time."""
    out = []
    for node, toks in enumerate(rows_tokens(gained)):
        if deliveries is None:
            out += [(node, t, -1) for t in toks]
            continue
        rec, snd, payload = deliveries
        mine = rec == node
        senders, rows = snd[mine], payload[mine]
        fallback = int(senders.min()) if senders.size else -1
        for t in toks:
            carrying = senders[(rows[:, t >> 6] >> np.uint64(t & 63)) & np.uint64(1) != 0]
            out.append((node, t, int(carrying.min()) if carrying.size else fallback))
    return out


class TestFirstLearns:
    """The vectorised attribution equals the per-pair rule: the least
    sender whose payload carried the token, else the node's least
    deliverer, else -1."""

    @pytest.mark.parametrize("k", [5, 70, 130])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_pair_rule(self, seed, k):
        rng = np.random.default_rng(seed)
        n, m = 12, int(rng.integers(0, 40))

        def token_rows(count, density):
            return pack_rows(
                [np.flatnonzero(rng.random(k) < density) for _ in range(count)], k
            )

        gained = token_rows(n, 0.15)
        deliveries = (
            rng.integers(0, n, m), rng.integers(0, n, m), token_rows(m, 0.1),
        )
        for flat in (deliveries, None):
            nodes, tokens, senders = first_learns(gained, flat)
            got = list(zip(nodes.tolist(), tokens.tolist(), senders.tolist()))
            assert got == _first_learns_loop(gained, flat)


class TestRecording:
    def test_first_record_wins(self):
        c = CausalTrace()
        c.record_learn(1, 0, 2, sender=5, sender_role="head")
        c.record_learn(1, 0, 4, sender=7, sender_role="member")  # ignored
        e = c.first_learned(1, 0)
        assert (e.round, e.sender, e.sender_role) == (2, 5, "head")

    def test_origin_shape(self):
        c = _sample_trace()
        e = c.first_learned(0, 0)
        assert e.is_origin
        assert (e.round, e.sender, e.sender_role) == (-1, -1, ORIGIN_ROLE)
        assert not c.first_learned(1, 0).is_origin

    def test_unknown_pair_is_none(self):
        assert _sample_trace().first_learned(9, 0) is None

    def test_coverage_counts_pairs(self):
        assert _sample_trace().coverage() == len(_sample_trace()) == 4


class TestProvenance:
    def test_chain_origin_first(self):
        chain = _sample_trace().provenance(2, 0)
        assert [e.node for e in chain] == [0, 1, 2]
        assert chain[0].is_origin
        assert [e.sender_role for e in chain[1:]] == ["head", "gateway"]

    def test_hops(self):
        c = _sample_trace()
        assert c.hops(0, 0) == 0
        assert c.hops(1, 0) == 1
        assert c.hops(2, 0) == 2
        assert c.hops(9, 0) is None

    def test_critical_path(self):
        hops, last_round = _sample_trace().critical_path(0)
        assert hops == 2
        assert last_round == 3

    def test_critical_path_origin_only(self):
        c = CausalTrace()
        c.record_origin(0, 0)
        assert c.critical_path(0) == (0, None)

    def test_broken_chain_terminates(self):
        # sender 7 has no recorded event: the walk must stop, not KeyError
        c = CausalTrace()
        c.record_learn(1, 0, 3, sender=7, sender_role="flat")
        chain = c.provenance(1, 0)
        assert [e.node for e in chain] == [1]
        assert c.hops(1, 0) == 1

    def test_phase_of(self):
        c = _sample_trace()  # phase_length=2
        assert c.phase_of(-1) == -1
        assert c.phase_of(0) == 0
        assert c.phase_of(3) == 1
        c.phase_length = None
        assert c.phase_of(3) is None

    def test_phase_length_excluded_from_equality(self):
        a, b = _sample_trace(), _sample_trace()
        b.phase_length = 99
        assert a == b


class TestAggregateViews:
    def test_token_events_sorted(self):
        events = _sample_trace().token_events(0)
        assert [(e.round, e.node) for e in events] == [
            (-1, 0), (0, 1), (2, 2), (3, 3)]

    def test_histograms(self):
        c = _sample_trace()
        assert c.hop_histogram() == {0: 1, 1: 1, 2: 2}
        assert c.latency_histogram() == {0: 1, 2: 1, 3: 1}  # origin excluded

    def test_events_jsonl_deterministic(self):
        rows = list(_sample_trace().events_jsonl())
        assert all(r["type"] == "learn" for r in rows)
        assert [(r["node"], r["token"]) for r in rows] == [
            (0, 0), (1, 0), (2, 0), (3, 0)]
        # byte-identical when re-serialized
        assert json.dumps(rows) == json.dumps(list(_sample_trace().events_jsonl()))


def _auto_scenario(spec, seed=5):
    return scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=seed)


class TestRegistryWideCausalIdentity:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_fast_and_reference_traces_bit_identical(self, spec):
        """Acceptance criterion: for every registered algorithm, the causal
        trace recorded natively by the fast path equals the reference
        engine's, event for event."""
        scenario = _auto_scenario(spec)
        overrides = {"seed": 9} if spec.seeded else {}
        ref = execute(spec, scenario, engine="reference", obs="trace",
                      **overrides)
        fast = execute(spec, scenario, engine="fast", obs="trace", **overrides)
        a, b = ref.result.causal_trace, fast.result.causal_trace
        assert a is not None and b is not None
        assert a.events == b.events
        assert a == b
        # and the JSONL projection (what --events exports) is byte-identical
        assert json.dumps(list(a.events_jsonl())) == \
            json.dumps(list(b.events_jsonl()))

    def test_trace_level_off_by_default(self):
        spec = next(s for s in all_specs() if s.name == "algorithm1")
        record = execute(spec, _auto_scenario(spec))
        assert record.result.causal_trace is None


class TestExecuteIntegration:
    def _record(self, **kw):
        spec = next(s for s in all_specs() if s.name == "algorithm1")
        return execute(spec, _auto_scenario(spec), obs="trace", **kw), spec

    def test_phase_length_matches_scenario_T(self):
        record, spec = self._record()
        scenario = _auto_scenario(spec)
        assert record.result.causal_trace.phase_length == scenario.params["T"]

    def test_origins_match_initial_assignment(self):
        record, spec = self._record()
        scenario = _auto_scenario(spec)
        causal = record.result.causal_trace
        origins = {(v, t) for (v, t), (r, _s, _role) in causal.events.items()
                   if r < 0}
        expected = {(v, t) for v, toks in scenario.initial.items()
                    for t in toks}
        assert origins == expected

    def test_complete_run_covers_all_pairs(self):
        record, _spec = self._record()
        assert record.complete
        assert record.result.causal_trace.coverage() == record.n * record.k

    def test_rides_the_result_cache(self, tmp_path):
        from repro.experiments.cache import ResultCache

        store = ResultCache(tmp_path)
        fresh, _ = self._record(cache=store)
        replay, _ = self._record(cache=store)
        assert replay.result.causal_trace == fresh.result.causal_trace
        assert replay.result.causal_trace is not fresh.result.causal_trace


def _through_record_codec(causal):
    """``causal`` carried by a JSON round trip of a run record."""
    spec = next(s for s in all_specs() if s.name == "algorithm2")
    record = execute(spec, _auto_scenario(spec), obs="trace")
    record = replace(record, result=replace(record.result, causal_trace=causal))
    return run_record_from_dict(
        json.loads(json.dumps(run_record_to_dict(record)))
    ).result.causal_trace


class TestSerialization:
    def test_roundtrip(self):
        c = _sample_trace()
        back = _through_record_codec(c)
        assert back == c
        assert back.phase_length == c.phase_length

    def test_rejects_foreign_payload(self):
        """A record whose causal columns are malformed or missing is
        rejected."""
        import repro.io

        spec = next(s for s in all_specs() if s.name == "algorithm2")
        data = run_record_to_dict(execute(spec, _auto_scenario(spec), obs="trace"))
        columns = repro.io._unpack_columns(data)

        def with_columns(cols):
            return {**data, **repro.io._pack_columns(list(cols.items()))}

        size = len(columns["causal.role"])
        for name, values in (("causal.role", [-1] * size),
                             ("causal.node", columns["causal.node"][:-1])):
            with pytest.raises(ValueError):
                run_record_from_dict(with_columns({**columns, name: values}))
        del columns["causal.round"]
        with pytest.raises(KeyError):
            run_record_from_dict(with_columns(columns))

    def test_rides_run_result(self):
        spec = next(s for s in all_specs() if s.name == "algorithm2")
        scenario = _auto_scenario(spec)
        record = execute(spec, scenario, obs="trace")
        back = run_record_from_dict(
            json.loads(json.dumps(run_record_to_dict(record)))
        ).result
        assert back.causal_trace == record.result.causal_trace
        assert back.causal_trace.phase_length == \
            record.result.causal_trace.phase_length


class TestExplainCli:
    def test_explain_reconstructs_hop_chain(self, capsys):
        """Acceptance criterion: `repro explain` shows a token's full hop
        chain with per-hop roles and phases on a (T, L)-HiNet scenario."""
        assert cli.main(["explain", "algorithm1", "--n0", "24", "--theta",
                         "7", "--k", "3", "--token", "2"]) == 0
        out = capsys.readouterr().out
        assert "provenance of token 2" in out
        assert "origin" in out
        assert "[phase" in out
        assert any(role in out for role in ("(head)", "(gateway)", "(member)"))
        assert "critical path" in out
        assert "α·L" in out

    def test_explain_on_flat_scenario(self, capsys):
        assert cli.main(["explain", "flood-all", "--n0", "12", "--k", "2",
                         "--token", "1"]) == 0
        out = capsys.readouterr().out
        assert "(flat)" in out

    def test_explain_rejects_bad_token(self):
        with pytest.raises(SystemExit):
            cli.main(["explain", "algorithm1", "--n0", "24", "--theta", "7",
                      "--k", "3", "--token", "99"])

"""Tests for the round-by-round stepping API (ActiveRun)."""

import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.graphs.generators.static import path_graph, static_trace
from repro.sim.engine import SynchronousEngine
from repro.sim.messages import initial_assignment


def _start(n=6, k=1, rounds=20, **engine_kw):
    trace = static_trace(path_graph(n), rounds=rounds)
    engine = SynchronousEngine(**engine_kw)
    return engine.start(
        trace, make_flood_all_factory(), k=k,
        initial={0: frozenset(range(k))}, max_rounds=rounds,
        stop_when_complete=True, stop_when_finished=False,
    )


class TestStepping:
    def test_step_advances_one_round(self):
        active = _start()
        assert active.round == 0
        assert active.step()
        assert active.round == 1
        assert active.metrics.rounds == 1

    def test_state_inspectable_between_steps(self):
        active = _start(n=5)
        active.step()
        # after round 0, node 1 heard the token, node 2 didn't
        assert 0 in active.algorithms[1].TA
        assert 0 not in active.algorithms[2].TA
        active.step()
        assert 0 in active.algorithms[2].TA

    def test_step_returns_false_at_stop(self):
        active = _start(n=3, rounds=20)
        steps = 0
        while active.step():
            steps += 1
        assert active.stopped
        assert not active.step()  # idempotent after stopping
        assert active.round == steps + 1

    def test_finish_matches_run(self):
        trace = static_trace(path_graph(6), rounds=20)
        init = initial_assignment(2, 6, mode="spread")
        engine = SynchronousEngine()
        active = engine.start(trace, make_flood_all_factory(), k=2,
                              initial=init, max_rounds=20,
                              stop_when_complete=True)
        active.run_to_completion()
        stepped = active.finish()
        whole = engine.run(trace, make_flood_all_factory(), k=2,
                           initial=init, max_rounds=20,
                           stop_when_complete=True)
        assert stepped.outputs == whole.outputs
        assert stepped.metrics.tokens_sent == whole.metrics.tokens_sent
        assert stepped.metrics.completion_round == whole.metrics.completion_round

    def test_early_finish_snapshot(self):
        """finish() is callable mid-run for a partial-result snapshot."""
        active = _start(n=8)
        active.step()
        partial = active.finish()
        assert not partial.complete
        assert partial.metrics.rounds == 1
        # stepping may continue afterwards
        active.run_to_completion()
        assert active.finish().complete

    def test_send_counters_current_between_steps(self):
        """After every step, and on a mid-run finish, the send counters
        equal the sum of the rounds executed so far."""
        trace = static_trace(path_graph(6), rounds=20)
        init = initial_assignment(2, 6, mode="spread")
        engine = SynchronousEngine()
        whole = engine.run(trace, make_flood_all_factory(), k=2,
                           initial=init, max_rounds=20,
                           stop_when_complete=True).metrics
        assert whole.rounds > 2
        active = engine.start(trace, make_flood_all_factory(), k=2,
                              initial=init, max_rounds=20,
                              stop_when_complete=True)
        assert active.metrics.tokens_sent == 0
        for r in range(1, whole.rounds + 1):
            active.step()
            metrics = active.metrics
            assert metrics.per_round_tokens == whole.per_round_tokens[:r]
            assert metrics.tokens_sent == sum(whole.per_round_tokens[:r])
            if r == 2:
                partial = active.finish().metrics
                assert partial.tokens_sent == sum(whole.per_round_tokens[:2])
        assert active.stopped
        assert active.metrics == whole

    def test_custom_stop_condition(self):
        active = _start(n=10, rounds=50)
        while active.step():
            if len(active.algorithms[4].TA) == 1:
                break
        assert 0 in active.algorithms[4].TA
        assert not active.finish().complete  # nodes beyond 4+ not yet reached

    def test_zero_budget(self):
        trace = static_trace(path_graph(3), rounds=1)
        engine = SynchronousEngine()
        active = engine.start(trace, make_flood_all_factory(), k=1,
                              initial={0: frozenset({0})}, max_rounds=0)
        assert not active.step()
        assert active.finish().metrics.rounds == 0

    def test_validation_at_start(self):
        trace = static_trace(path_graph(3), rounds=2)
        engine = SynchronousEngine()
        with pytest.raises(ValueError):
            engine.start(trace, make_flood_all_factory(), k=-1,
                         initial={}, max_rounds=2)

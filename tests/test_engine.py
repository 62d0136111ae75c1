"""Unit and behavioural tests for the synchronous engine."""

import time

import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.obs.observer import RunObserver
from repro.sim import engine as engine_module
from repro.sim.engine import SynchronousEngine, run
from repro.sim.messages import Message
from repro.sim.node import NodeAlgorithm
from repro.sim.topology import GraphTrace, Snapshot


class Echo(NodeAlgorithm):
    """Broadcast everything known every round (mini-flooding for tests)."""

    def send(self, ctx):
        if not self.TA:
            return []
        return [Message.broadcast(self.node, self.TA)]

    def receive(self, ctx, inbox):
        for m in inbox:
            self.TA |= m.tokens


class UnicastOnce(NodeAlgorithm):
    """Node 0 unicasts its token to a fixed dest in round 0."""

    dest = 1

    def send(self, ctx):
        if ctx.round_index == 0 and self.TA:
            return [Message.unicast(self.node, self.dest, self.TA)]
        return []

    def receive(self, ctx, inbox):
        for m in inbox:
            self.TA |= m.tokens


class Silent(NodeAlgorithm):
    def send(self, ctx):
        return []

    def receive(self, ctx, inbox):
        pass

    def finished(self, ctx):
        return True


def _line(n, rounds=10):
    snap = Snapshot.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return GraphTrace.constant(snap, rounds=rounds)


class TestBasicRun:
    def test_flood_completes_on_path(self):
        net = _line(5)
        res = run(net, lambda v, k, init: Echo(v, k, init), k=1,
                  initial={0: frozenset({0})}, max_rounds=10,
                  stop_when_complete=True)
        assert res.complete
        # one token crossing a 5-path takes exactly 4 rounds
        assert res.metrics.completion_round == 4

    def test_outputs_are_final_token_sets(self):
        net = _line(3)
        res = run(net, lambda v, k, init: Echo(v, k, init), k=2,
                  initial={0: frozenset({0}), 2: frozenset({1})},
                  max_rounds=5, stop_when_complete=True)
        assert res.outputs == {v: frozenset({0, 1}) for v in range(3)}
        assert res.missing() == {}

    def test_missing_reports_gaps(self):
        net = _line(3, rounds=1)
        res = run(net, lambda v, k, init: Echo(v, k, init), k=1,
                  initial={0: frozenset({0})}, max_rounds=1)
        assert not res.complete
        assert res.missing() == {2: frozenset({0})}

    def test_stop_when_all_finished(self):
        net = _line(4)
        res = run(net, lambda v, k, init: Silent(v, k, init), k=1,
                  initial={0: frozenset({0})}, max_rounds=50)
        assert res.metrics.rounds == 1  # everyone finished after round 0


class TestDeliverySemantics:
    def test_unicast_delivered_to_neighbor(self):
        net = _line(3)
        res = run(net, lambda v, k, init: UnicastOnce(v, k, init), k=1,
                  initial={0: frozenset({0})}, max_rounds=1)
        assert 0 in res.outputs[1]
        assert 0 not in res.outputs[2]

    def test_unicast_to_non_neighbor_dropped_but_charged(self):
        class FarUnicast(UnicastOnce):
            dest = 2  # not adjacent to 0 on a path

        net = _line(3)
        res = run(net, lambda v, k, init: FarUnicast(v, k, init), k=1,
                  initial={0: frozenset({0})}, max_rounds=1)
        assert 0 not in res.outputs[2]
        assert res.metrics.dropped_unicasts == 1
        assert res.metrics.tokens_sent == 1  # the radio still transmitted

    def test_broadcast_costs_once_regardless_of_audience(self):
        star = Snapshot.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        net = GraphTrace.constant(star, rounds=1)
        res = run(net, lambda v, k, init: Echo(v, k, init), k=1,
                  initial={0: frozenset({0})}, max_rounds=1)
        # node 0 broadcast 1 token to 3 neighbours: cost 1, delivery x3
        assert res.metrics.tokens_sent == 1
        assert all(0 in res.outputs[v] for v in range(4))

    def test_same_round_send_receive_no_relay(self):
        """A message cannot be relayed onward within the round it arrives."""
        net = _line(3, rounds=1)
        res = run(net, lambda v, k, init: Echo(v, k, init), k=1,
                  initial={0: frozenset({0})}, max_rounds=1)
        assert 0 in res.outputs[1]
        assert 0 not in res.outputs[2]


class TestValidation:
    def test_sender_spoofing_rejected(self):
        class Spoof(NodeAlgorithm):
            def send(self, ctx):
                return [Message.broadcast(99, self.TA or {0})]

            def receive(self, ctx, inbox):
                pass

        net = _line(2)
        with pytest.raises(ValueError, match="sender"):
            run(net, lambda v, k, init: Spoof(v, k, init), k=1,
                initial={0: frozenset({0})}, max_rounds=1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            run(_line(2), lambda v, k, init: Echo(v, k, init), k=-1,
                initial={}, max_rounds=1)

    def test_initial_out_of_universe_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            run(_line(2), lambda v, k, init: Echo(v, k, init), k=1,
                initial={0: frozenset({5})}, max_rounds=1)

    def test_initial_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="node"):
            run(_line(2), lambda v, k, init: Echo(v, k, init), k=1,
                initial={9: frozenset({0})}, max_rounds=1)


#: (initial, k, max_rounds, exact ValueError message) on a 4-node path.
_BAD_RUN_ARGS = {
    "node-minus-one": ({-1: frozenset({0})}, 2, 3,
                       "initial assignment names node -1 outside 0..3"),
    "node-n": ({4: frozenset({0})}, 2, 3,
               "initial assignment names node 4 outside 0..3"),
    "first-bad-node-in-order": ({0: frozenset({0}), 6: frozenset(), -1: frozenset()},
                                2, 3, "initial assignment names node 6 outside 0..3"),
    "token-minus-one": ({0: frozenset({-1})}, 2, 3,
                        "initial assignment contains ids outside 0..1"),
    "token-k": ({1: frozenset({0, 2})}, 2, 3,
                "initial assignment contains ids outside 0..1"),
    "negative-k": ({}, -1, 3, "k must be non-negative, got -1"),
    "negative-max-rounds": ({0: frozenset({0})}, 2, -1,
                            "max_rounds must be non-negative, got -1"),
}


@pytest.mark.parametrize("tier", ["reference", "fast"])
class TestRunArgsPinned:
    """Both tiers reject bad run arguments with the same exception type
    and message, before any round runs."""

    @pytest.mark.parametrize("case", sorted(_BAD_RUN_ARGS))
    def test_rejected_with_exact_message(self, tier, case):
        initial, k, max_rounds, message = _BAD_RUN_ARGS[case]
        engine = SynchronousEngine(engine=tier)
        with pytest.raises(ValueError) as info:
            engine.run(_line(4), make_flood_all_factory(), k, initial, max_rounds)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_empty_initial_runs_with_empty_outputs(self, tier):
        engine = SynchronousEngine(engine=tier)
        res = engine.run(_line(4), make_flood_all_factory(), 2, {}, 3)
        assert (res.algorithms is None) == (tier == "fast")
        assert res.outputs == {v: frozenset() for v in range(4)}
        assert not res.complete
        assert res.metrics.tokens_sent == 0
        assert res.metrics.per_round_coverage == [0, 0, 0]


class TestTraceRecording:
    def test_trace_records_sends_and_deliveries(self):
        net = _line(3)
        engine = SynchronousEngine(obs="record")
        res = engine.run(net, lambda v, k, init: Echo(v, k, init), k=1,
                         initial={0: frozenset({0})}, max_rounds=2,
                         stop_when_complete=True)
        assert res.recording is not None
        first = res.recording.rounds[0]
        assert len(first.messages) == 1
        assert sum(m.cost for m in first.messages) == 1
        assert first.gained == ((1, (0,)),)  # delivered to node 0's neighbour

    def test_knowledge_snapshots(self):
        net = _line(3)
        engine = SynchronousEngine(obs="trace")
        res = engine.run(net, lambda v, k, init: Echo(v, k, init), k=1,
                         initial={0: frozenset({0})}, max_rounds=3,
                         stop_when_complete=True)
        assert res.causal_trace.first_learned(2, 0).round == 1
        hops = [(e.round, e.sender, e.node)
                for e in res.causal_trace.provenance(2, 0)]
        assert hops == [(-1, -1, 0), (0, 0, 1), (1, 1, 2)]



def _echo(v, k, init):
    return Echo(v, k, init)


class TestReferenceProfileBookkeeping:
    """At ``obs="profile"`` the reference tier books every step of a run
    to a stage, as the vectorised tier does: opening a round, the crash
    stage and the round contexts to ``send``; building the algorithm
    objects and the output sets to ``bookkeeping``."""

    DELAY = 0.05

    def _run(self, factory):
        active = SynchronousEngine(obs="profile").start(
            _line(6), factory, 2, {0: frozenset({0}), 5: frozenset({1})}, 4
        )
        active.run_to_completion()
        return active

    def test_open_round_is_send(self, monkeypatch):
        open_round = RunObserver.open_round

        def slow(observer, arrs):
            time.sleep(self.DELAY)
            return open_round(observer, arrs)

        monkeypatch.setattr(RunObserver, "open_round", slow)
        profile = self._run(_echo).finish().timeline.profile
        assert profile["send"] >= 4 * self.DELAY
        assert profile["topology"] < self.DELAY

    def test_algorithm_objects_are_bookkeeping(self):
        def slow_factory(v, k, init):
            if v == 0:
                time.sleep(self.DELAY)
            return Echo(v, k, init)

        profile = self._run(slow_factory).finish().timeline.profile
        assert profile["bookkeeping"] >= self.DELAY
        assert profile["send"] < self.DELAY

    def test_output_sets_are_bookkeeping(self, monkeypatch):
        active = self._run(_echo)
        before = active.observer.profiler.seconds["bookkeeping"]
        slept = []

        def slow_frozenset(*args):
            if not slept:
                time.sleep(self.DELAY)
                slept.append(True)
            return frozenset(*args)

        monkeypatch.setattr(engine_module, "frozenset", slow_frozenset, raising=False)
        profile = active.finish().timeline.profile
        assert slept
        assert profile["bookkeeping"] - before >= self.DELAY

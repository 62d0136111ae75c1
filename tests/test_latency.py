"""Tests for the TVG latency (zeta > 1) engine mode."""

import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.graphs.generators.static import path_graph, static_trace
from repro.sim.engine import SynchronousEngine, run
from repro.sim.topology import GraphTrace, Snapshot


class TestLatencyConfig:
    def test_latency_validated(self):
        with pytest.raises(ValueError):
            SynchronousEngine(latency=0)

    def test_latency_one_is_default_semantics(self):
        trace = static_trace(path_graph(5), rounds=10)
        a = run(trace, make_flood_all_factory(), k=1,
                initial={0: frozenset({0})}, max_rounds=10,
                stop_when_complete=True)
        b = run(trace, make_flood_all_factory(), k=1,
                initial={0: frozenset({0})}, max_rounds=10,
                stop_when_complete=True, latency=1)
        assert a.metrics.completion_round == b.metrics.completion_round
        assert a.metrics.tokens_sent == b.metrics.tokens_sent


class TestLatencyBehaviour:
    def test_flood_time_scales_with_latency(self):
        """On a static path, completion time ~ latency * hops."""
        trace = static_trace(path_graph(4), rounds=30)
        t1 = run(trace, make_flood_all_factory(), k=1,
                 initial={0: frozenset({0})}, max_rounds=30,
                 stop_when_complete=True, latency=1)
        t3 = run(trace, make_flood_all_factory(), k=1,
                 initial={0: frozenset({0})}, max_rounds=30,
                 stop_when_complete=True, latency=3)
        assert t1.metrics.completion_round == 3
        # each hop now takes 3 rounds: first reception at round 2, etc.
        assert t3.metrics.completion_round >= 3 * t1.metrics.completion_round - 2
        assert t3.complete

    def test_audience_fixed_at_transmission_time(self):
        """The frame leaves over round-r edges even if the edge is gone
        when it lands — the TVG crossing semantics."""
        rounds = [
            [(0, 1)],  # round 0: edge exists at transmission
            [],        # round 1: edge gone; frame still lands (latency 2)
            [],
        ]
        trace = GraphTrace([Snapshot.from_edges(2, e) for e in rounds])
        res = run(trace, make_flood_all_factory(), k=1,
                  initial={0: frozenset({0})}, max_rounds=3,
                  stop_when_complete=True, latency=2)
        assert res.complete
        assert res.metrics.completion_round == 2  # landed end of round 1

    def test_no_delivery_before_due_round(self):
        trace = static_trace(path_graph(2), rounds=5)
        engine = SynchronousEngine(latency=3, obs="trace")
        res = engine.run(trace, make_flood_all_factory(), k=1,
                         initial={0: frozenset({0})}, max_rounds=5,
                         stop_when_complete=True)
        # rounds 0,1 in flight
        assert res.causal_trace.first_learned(1, 0).round == 2

    def test_in_flight_messages_hold_off_finish(self):
        """stop_when_finished must wait for frames still in the air."""
        from repro.sim.messages import Message
        from repro.sim.node import NodeAlgorithm

        class OneShot(NodeAlgorithm):
            def send(self, ctx):
                if ctx.round_index == 0 and self.TA:
                    return [Message.broadcast(self.node, self.TA)]
                return []

            def receive(self, ctx, inbox):
                for m in inbox:
                    self.TA |= m.tokens

            def finished(self, ctx):
                return ctx.round_index >= 0  # "done" immediately after r0

        trace = static_trace(path_graph(2), rounds=10)
        res = run(trace, lambda v, k, i: OneShot(v, k, i), k=1,
                  initial={0: frozenset({0})}, max_rounds=10, latency=4)
        assert res.complete  # delivery at round 3 happened before stopping

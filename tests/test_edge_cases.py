"""Edge-case sweep across the library: degenerate sizes, empty inputs,
boundary parameters, and combined engine features."""

import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.core.algorithm1 import make_algorithm1_factory
from repro.core.algorithm2 import Algorithm2Node, make_algorithm2_factory
from repro.core.analysis import CostParams, hinet_interval_comm, klo_interval_comm
from repro.experiments.pareto import pareto_frontier
from repro.experiments.scenarios import hinet_interval_scenario
from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.graphs.generators.static import complete_graph, path_graph, static_trace
from repro.graphs.properties import is_hinet
from repro.roles import Role
from repro.sim.engine import SynchronousEngine, run
from repro.sim.linkmodel import IidLoss
from repro.sim.messages import Message, initial_assignment
from repro.sim.topology import GraphTrace, Snapshot


class TestDegenerateInstances:
    def test_zero_tokens_everything_trivially_complete(self):
        trace = static_trace(path_graph(4), rounds=3)
        res = run(trace, make_flood_all_factory(), k=0, initial={},
                  max_rounds=3)
        assert res.complete
        assert res.metrics.tokens_sent == 0

    def test_single_node_network(self):
        trace = GraphTrace([Snapshot.from_edges(1, [])])
        res = run(trace, make_flood_all_factory(), k=2,
                  initial={0: frozenset({0, 1})}, max_rounds=1)
        assert res.complete

    def test_k_larger_than_n(self):
        n, k = 4, 10
        trace = static_trace(complete_graph(n), rounds=10)
        res = run(trace, make_flood_all_factory(), k=k,
                  initial=initial_assignment(k, n, mode="spread"),
                  max_rounds=10, stop_when_complete=True)
        assert res.complete

    def test_algorithm1_with_no_initial_tokens_anywhere(self):
        scenario = hinet_interval_scenario(
            n0=20, theta=6, k=2, alpha=2, L=2, seed=1,
        )
        res = run(
            scenario.trace,
            make_algorithm1_factory(T=int(scenario.params["T"]), M=4),
            k=2, initial={}, max_rounds=24,
        )
        # nothing to disseminate, nothing sent, not complete (k=2 missing)
        assert res.metrics.tokens_sent == 0
        assert not res.complete

    def test_algorithm2_everyone_starts_full(self):
        scenario = hinet_interval_scenario(
            n0=12, theta=4, k=2, alpha=2, L=2, seed=2,
        )
        full = {v: frozenset({0, 1}) for v in range(12)}
        res = run(scenario.trace, make_algorithm2_factory(M=11), k=2,
                  initial=full, max_rounds=11, stop_when_complete=True)
        assert res.complete
        assert res.metrics.completion_round == 1  # detected after round 1


class TestBoundaryParameters:
    def test_hinet_two_nodes(self):
        params = HiNetParams(n=2, theta=1, num_heads=1, T=2, phases=2, L=1)
        scen = generate_hinet(params, seed=0)
        assert is_hinet(scen.trace, 2, 1)

    def test_hinet_all_nodes_heads_or_gateways(self):
        # n = heads + gateways exactly; zero plain members
        params = HiNetParams(n=7, theta=4, num_heads=4, T=2, phases=2, L=2)
        scen = generate_hinet(params, seed=0)
        snap = scen.trace.snapshot(0)
        members = [v for v in range(7) if snap.role(v) is Role.MEMBER]
        assert members == []
        assert scen.mean_members == 0

    def test_cost_model_theta_zero(self):
        p = CostParams(n0=10, theta=0, nm=5, nr=1, k=2, alpha=1, L=1)
        # phases = ceil(0/1)+1 = 1
        assert hinet_interval_comm(p) == 1 * 5 * 2 + 5 * 1 * 2

    def test_cost_model_k_zero(self):
        p = CostParams(n0=10, theta=3, nm=5, nr=1, k=0)
        assert hinet_interval_comm(p) == 0
        assert klo_interval_comm(p) == 0

    def test_cost_model_nm_equals_n0_rejected_only_beyond(self):
        CostParams(n0=10, theta=3, nm=10, nr=1, k=2)  # nm == n0 allowed
        with pytest.raises(ValueError):
            CostParams(n0=10, theta=3, nm=11, nr=1, k=2)


class TestCombinedEngineFeatures:
    def test_loss_plus_latency(self):
        trace = static_trace(path_graph(5), rounds=60)
        res = run(trace, make_flood_all_factory(), k=1,
                  initial={0: frozenset({0})}, max_rounds=60,
                  stop_when_complete=True,
                  link=IidLoss(0.2, seed=3), latency=2)
        assert res.complete
        assert res.metrics.lost_deliveries > 0

    def test_adaptive_plus_trace_recording(self):
        from repro.graphs.adversary import QuarantineAdversary

        adv = QuarantineAdversary(5, seed=1)
        engine = SynchronousEngine(obs="trace")
        res = engine.run(adv, make_flood_all_factory(), k=1,
                         initial={2: frozenset({0})}, max_rounds=10,
                         stop_when_complete=True)
        assert res.complete
        assert res.causal_trace is not None
        # the source held the token from the beginning
        assert res.causal_trace.first_learned(2, 0).is_origin
        # the token moved: every other node learned it from a sender
        hops = [res.causal_trace.first_learned(v, 0) for v in range(5) if v != 2]
        assert all(e.round >= 0 and e.sender >= 0 for e in hops)

    def test_latency_with_stepping(self):
        trace = static_trace(path_graph(3), rounds=10)
        engine = SynchronousEngine(latency=2)
        active = engine.start(trace, make_flood_all_factory(), k=1,
                              initial={0: frozenset({0})}, max_rounds=10,
                              stop_when_complete=True)
        active.step()
        assert 0 not in active.algorithms[1].TA  # still in flight
        active.step()
        assert 0 in active.algorithms[1].TA

    def test_loss_on_unicast_paths(self):
        """Algorithm 2 member uploads survive loss via head-change
        re-uploads or simply because heads rebroadcast."""
        scenario = hinet_interval_scenario(
            n0=16, theta=4, k=2, alpha=2, L=2, seed=5,
        )
        res = run(scenario.trace, make_algorithm2_factory(M=40), k=2,
                  initial=scenario.initial, max_rounds=40,
                  stop_when_complete=True, link=IidLoss(0.15, seed=9))
        assert res.complete


class TestParetoEdge:
    def test_empty_input(self):
        assert pareto_frontier([], "x", "y") == []

    def test_all_none(self):
        assert pareto_frontier([{"x": None, "y": 1}], "x", "y") == []


class TestMessageEdge:
    def test_tag_preserved(self):
        m = Message.broadcast(0, {1}, tag="hello")
        assert m.tag == "hello"

    def test_frozen(self):
        m = Message.broadcast(0, {1})
        with pytest.raises(AttributeError):
            m.sender = 5

    def test_algorithm2_repr(self):
        node = Algorithm2Node(3, 5, frozenset({1}), M=4)
        assert "node=3" in repr(node)
        assert "1/5" in repr(node)

"""Tests for the KLO, flooding, k-active and gossip baselines."""

import pytest

from repro.baselines.flooding import make_flood_all_factory, make_flood_new_factory
from repro.baselines.gossip import GossipNode, make_gossip_factory
from repro.baselines.kactive import KActiveFloodNode, make_kactive_factory
from repro.baselines.klo import (
    KLOIntervalNode,
    KLOOneIntervalNode,
    make_klo_interval_factory,
    make_klo_one_factory,
)
from repro.core.bounds import klo_interval_phases, required_T
from repro.graphs.generators.interval import t_interval_trace
from repro.graphs.generators.static import complete_graph, path_graph, static_trace
from repro.graphs.generators.worstcase import shuffled_path_trace
from repro.sim.engine import run
from repro.sim.messages import Message, initial_assignment
from repro.sim.node import RoundContext


def _ctx(r, node=0, neighbors=frozenset({1})):
    return RoundContext(round_index=r, node=node, neighbors=neighbors)


class TestKLOIntervalUnit:
    def test_broadcasts_min_unsent_per_phase(self):
        node = KLOIntervalNode(0, 3, frozenset({1, 2}), T=2, M=2)
        assert node.send(_ctx(0))[0].tokens == frozenset({1})
        assert node.send(_ctx(1))[0].tokens == frozenset({2})
        # new phase: TS cleared, restart from min
        assert node.send(_ctx(2))[0].tokens == frozenset({1})

    def test_finishes_after_M_phases(self):
        node = KLOIntervalNode(0, 1, frozenset({0}), T=2, M=1)
        assert node.send(_ctx(2)) == []
        assert node.finished(_ctx(1))

    def test_validation(self):
        with pytest.raises(ValueError):
            KLOIntervalNode(0, 1, frozenset(), T=0, M=1)


class TestKLOIntervalEndToEnd:
    def test_completes_on_t_interval_trace(self):
        n, k, alpha, L = 24, 4, 2, 2
        T = required_T(k, alpha, L)
        M = klo_interval_phases(n, alpha, L)
        trace = t_interval_trace(n, T, rounds=T * M, churn_p=0.05, seed=6)
        res = run(trace, make_klo_interval_factory(T=T, M=M), k=k,
                  initial=initial_assignment(k, n, mode="spread"),
                  max_rounds=T * M)
        assert res.complete

    def test_comm_bounded_by_table2(self):
        """Measured tokens <= phases * n * k (each node <= k per phase)."""
        n, k, alpha, L = 24, 4, 2, 2
        T = required_T(k, alpha, L)
        M = klo_interval_phases(n, alpha, L)
        trace = t_interval_trace(n, T, rounds=T * M, churn_p=0.05, seed=6)
        res = run(trace, make_klo_interval_factory(T=T, M=M), k=k,
                  initial=initial_assignment(k, n, mode="spread"),
                  max_rounds=T * M)
        assert res.metrics.tokens_sent <= M * n * k


class TestKLOOneInterval:
    def test_completes_on_worstcase_path(self):
        n, k = 20, 3
        trace = shuffled_path_trace(n, rounds=n - 1, seed=2)
        res = run(trace, make_klo_one_factory(M=n - 1), k=k,
                  initial=initial_assignment(k, n, mode="spread"),
                  max_rounds=n - 1)
        assert res.complete

    def test_cost_upper_bound(self):
        n, k = 20, 3
        trace = shuffled_path_trace(n, rounds=n - 1, seed=2)
        res = run(trace, make_klo_one_factory(M=n - 1), k=k,
                  initial=initial_assignment(k, n, mode="spread"),
                  max_rounds=n - 1)
        assert res.metrics.tokens_sent <= (n - 1) * n * k

    def test_unit_stops_at_M(self):
        node = KLOOneIntervalNode(0, 1, frozenset({0}), M=1)
        assert node.send(_ctx(0))[0].tokens == frozenset({0})
        assert node.send(_ctx(1)) == []


class TestFlooding:
    def test_flood_all_matches_bfs_time_on_static_path(self):
        trace = static_trace(path_graph(6), rounds=10)
        res = run(trace, make_flood_all_factory(), k=1,
                  initial={0: frozenset({0})}, max_rounds=10,
                  stop_when_complete=True)
        assert res.metrics.completion_round == 5

    def test_flood_new_works_on_static(self):
        trace = static_trace(path_graph(6), rounds=10)
        res = run(trace, make_flood_new_factory(), k=1,
                  initial={0: frozenset({0})}, max_rounds=10,
                  stop_when_complete=True)
        assert res.complete

    def test_flood_new_cheaper_than_flood_all(self):
        # a path forces many rounds; FloodAll re-broadcasts everything
        # every round while FloodNew sends each token once per node
        trace = static_trace(path_graph(10), rounds=12)
        init = initial_assignment(4, 10, mode="spread")
        all_ = run(trace, make_flood_all_factory(), k=4, initial=init,
                   max_rounds=12, stop_when_complete=True)
        new = run(trace, make_flood_new_factory(), k=4, initial=init,
                  max_rounds=12, stop_when_complete=True)
        assert new.complete and all_.complete
        assert new.metrics.tokens_sent < all_.metrics.tokens_sent

    def test_flood_new_fails_on_missed_connection(self):
        """Failure injection: the epidemic variant loses a token when the
        audience appears after its only broadcast — the structural reason
        dynamic networks need repetition."""
        from repro.sim.topology import GraphTrace, Snapshot

        # round 0: 0-1 (token broadcast once); round 1+: 1 never re-sends to 2
        rounds = [
            [(0, 1)],
            [(0, 1)],   # 2 still isolated while 1's freshness expires
            [(1, 2)],
            [(1, 2)],
        ]
        trace = GraphTrace([Snapshot.from_edges(3, e) for e in rounds])
        res = run(trace, make_flood_new_factory(), k=1,
                  initial={0: frozenset({0})}, max_rounds=4)
        assert not res.complete
        # while FloodAll on the same trace succeeds
        res2 = run(trace, make_flood_all_factory(), k=1,
                   initial={0: frozenset({0})}, max_rounds=4)
        assert res2.complete


class TestKActive:
    def test_forwards_exactly_A_rounds(self):
        node = KActiveFloodNode(0, 1, frozenset({0}), A=2)
        assert node.send(_ctx(0))[0].tokens == frozenset({0})
        assert node.send(_ctx(1))[0].tokens == frozenset({0})
        assert node.send(_ctx(2)) == []

    def test_relearning_does_not_reactivate(self):
        node = KActiveFloodNode(0, 1, frozenset({0}), A=1)
        node.send(_ctx(0))
        node.receive(_ctx(0), [Message.broadcast(1, {0})])  # already known
        assert node.send(_ctx(1)) == []

    def test_larger_A_bridges_what_A1_misses(self):
        from repro.sim.topology import GraphTrace, Snapshot

        rounds = [
            [(0, 1)],
            [(0, 1)],
            [(1, 2)],
        ]
        trace = GraphTrace([Snapshot.from_edges(3, e) for e in rounds])
        small = run(trace, make_kactive_factory(A=1), k=1,
                    initial={0: frozenset({0})}, max_rounds=3)
        big = run(trace, make_kactive_factory(A=3), k=1,
                  initial={0: frozenset({0})}, max_rounds=3)
        assert not small.complete
        assert big.complete

    def test_A_validated(self):
        with pytest.raises(ValueError):
            KActiveFloodNode(0, 1, frozenset(), A=0)


class TestGossip:
    def test_reproducible(self):
        trace = static_trace(complete_graph(12), rounds=60)
        init = initial_assignment(3, 12, mode="spread")
        a = run(trace, make_gossip_factory(seed=5), k=3, initial=init,
                max_rounds=60, stop_when_complete=True)
        b = run(trace, make_gossip_factory(seed=5), k=3, initial=init,
                max_rounds=60, stop_when_complete=True)
        assert a.metrics.tokens_sent == b.metrics.tokens_sent
        assert a.metrics.completion_round == b.metrics.completion_round

    def test_completes_whp_on_complete_graph(self):
        trace = static_trace(complete_graph(16), rounds=300)
        res = run(trace, make_gossip_factory(seed=1), k=2,
                  initial=initial_assignment(2, 16, mode="spread"),
                  max_rounds=300, stop_when_complete=True)
        assert res.complete

    def test_one_mode_sends_single_token(self):
        node = GossipNode(0, 4, frozenset({1, 2, 3}), rng=__import__("numpy").random.default_rng(0), mode="one")
        msgs = node.send(_ctx(0, neighbors=frozenset({1, 2})))
        assert len(msgs) == 1 and len(msgs[0].tokens) == 1

    def test_mode_validated(self):
        import numpy as np
        with pytest.raises(ValueError):
            GossipNode(0, 1, frozenset(), rng=np.random.default_rng(0), mode="pull")

    def test_isolated_node_silent(self):
        import numpy as np
        node = GossipNode(0, 1, frozenset({0}), rng=np.random.default_rng(0))
        assert node.send(_ctx(0, neighbors=frozenset())) == []

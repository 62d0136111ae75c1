"""Tests for the d-hop cluster extension (formation, scenario, dissemination)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multihop.dissemination import DHopDisseminationNode, make_dhop_factory
from repro.multihop.formation import DHopAssignment, dhop_clustering
from repro.multihop.scenario import DHopParams, generate_dhop
from repro.graphs.generators.static import erdos_renyi, grid_graph, path_graph
from repro.roles import Role
from repro.sim.engine import run
from repro.sim.messages import Message, initial_assignment
from repro.sim.node import RoundContext
from repro.sim.topology import Snapshot


class TestFormation:
    def test_path_d2(self):
        snap = Snapshot.from_networkx(path_graph(10))
        asg = dhop_clustering(snap, d=2)
        asg.validate(snap)
        # greedy sweep on a path captures 2 hops forward per head
        assert asg.heads == frozenset({0, 3, 6, 9})
        assert asg.depth == (0, 1, 2, 0, 1, 2, 0, 1, 2, 0)

    def test_d1_reduces_to_one_hop(self):
        snap = Snapshot.from_networkx(path_graph(5))
        asg = dhop_clustering(snap, d=1)
        asg.validate(snap)
        for v in range(5):
            if asg.head_of[v] != v:
                assert asg.parent[v] == asg.head_of[v]
                assert asg.depth[v] == 1

    def test_fewer_heads_with_larger_d(self):
        snap = Snapshot.from_networkx(grid_graph(6, 6))
        h1 = len(dhop_clustering(snap, d=1).heads)
        h3 = len(dhop_clustering(snap, d=3).heads)
        assert h3 <= h1

    def test_children_inverse_of_parent(self):
        snap = Snapshot.from_networkx(grid_graph(4, 4))
        asg = dhop_clustering(snap, d=2)
        for v in range(asg.n):
            for c in asg.children(v):
                assert asg.parent[c] == v

    def test_invalid_d(self):
        snap = Snapshot.from_networkx(path_graph(3))
        with pytest.raises(ValueError):
            dhop_clustering(snap, d=0)

    def test_validate_catches_depth_violation(self):
        snap = Snapshot.from_networkx(path_graph(3))
        bad = DHopAssignment(
            d=1, head_of=(0, 0, 0), parent=(None, 0, 1), depth=(0, 1, 2)
        )
        with pytest.raises(ValueError, match="depth"):
            bad.validate(snap)

    def test_validate_catches_cross_cluster_parent(self):
        snap = Snapshot.from_networkx(path_graph(4))
        bad = DHopAssignment(
            d=2, head_of=(0, 0, 3, 3), parent=(None, 0, 1, None), depth=(0, 1, 2, 0)
        )
        with pytest.raises(ValueError, match="another cluster"):
            bad.validate(snap)

    @given(seed=st.integers(0, 200), n=st.integers(2, 30),
           d=st.integers(1, 3), p=st.floats(0.05, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_formation_invariants_random(self, seed, n, d, p):
        snap = Snapshot.from_networkx(erdos_renyi(n, p, seed=seed))
        asg = dhop_clustering(snap, d=d)
        asg.validate(snap)  # raises on any breach
        # every node covered
        assert all(h is not None for h in asg.head_of)


class TestScenario:
    def test_generated_scenario_validates(self):
        params = DHopParams(n=30, num_heads=3, T=5, phases=4, d=2, L=2)
        scen = generate_dhop(params, seed=1)
        scen.validate()
        assert scen.trace.horizon == 20

    def test_depths_bounded(self):
        params = DHopParams(n=40, num_heads=4, T=4, phases=3, d=3, L=2)
        scen = generate_dhop(params, seed=2)
        for asg in scen.assignments:
            assert max(asg.depth) <= 3

    def test_parent_lookup_tracks_phases(self):
        params = DHopParams(n=20, num_heads=2, T=3, phases=4, d=2, L=1,
                            reaffiliation_p=1.0)
        scen = generate_dhop(params, seed=3)
        # with certain re-affiliation, at least one node's parent changes
        changed = any(
            scen.parent_of(v, 0) != scen.parent_of(v, 3 * 3)
            for v in range(20)
        )
        assert changed

    def test_reproducible(self):
        params = DHopParams(n=25, num_heads=3, T=4, phases=3, d=2, L=2)
        a = generate_dhop(params, seed=7)
        b = generate_dhop(params, seed=7)
        for r in range(a.trace.horizon):
            assert a.trace.snapshot(r).edge_set() == b.trace.snapshot(r).edge_set()

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DHopParams(n=5, num_heads=5, T=1, phases=1, L=3)
        with pytest.raises(ValueError):
            DHopParams(n=10, num_heads=1, T=1, phases=1, d=0)


class TestDisseminationUnit:
    def _node(self, **kw):
        leaf_depth = lambda v, r: 1
        leaf_depth.cluster_radius = 1  # default: a leaf (no down duty)
        defaults = dict(node=1, k=3, initial_tokens=frozenset({0}), M=20,
                        parent_of=lambda v, r: 0, depth_of=leaf_depth)
        defaults.update(kw)
        return DHopDisseminationNode(**defaults)

    def _ctx(self, r, role=Role.MEMBER):
        return RoundContext(round_index=r, node=1, neighbors=frozenset({0}),
                            role=role, head=0)

    def test_member_uploads_to_parent_round0(self):
        node = self._node()
        msgs = node.send(self._ctx(0))
        assert msgs[0].dest == 0 and msgs[0].tag == "up"
        assert msgs[0].tokens == frozenset({0})

    def test_member_reuploads_on_parent_change(self):
        parents = {0: 0, 1: 2}
        node = self._node(parent_of=lambda v, r: parents.get(r, 2))
        node.send(self._ctx(0))
        msgs = node.send(self._ctx(1))
        assert msgs and msgs[0].dest == 2

    def test_relay_forwards_child_tokens_up(self):
        node = self._node()
        node.send(self._ctx(0))  # initial upload, sent_up = {0}
        node.receive(self._ctx(0), [
            Message.unicast(5, 1, {2}, tag="up"),
        ])
        msgs = node.send(self._ctx(1))
        assert msgs and msgs[0].tokens == frozenset({2})

    def test_relay_dedups_already_sent(self):
        node = self._node()
        node.send(self._ctx(0))
        node.receive(self._ctx(0), [Message.unicast(5, 1, {0}, tag="up")])
        assert node.send(self._ctx(1)) == []  # 0 already sent up

    def test_interior_broadcasts_TA_every_round(self):
        depth_of = lambda v, r: 1
        depth_of.cluster_radius = 3
        node = self._node(depth_of=depth_of)
        node.receive(self._ctx(0), [Message.broadcast(0, {1, 2}, tag="down")])
        for r in range(1, 3):
            msgs = node.send(self._ctx(r))
            down = [m for m in msgs if m.tag == "down"]
            assert down and down[0].tokens == frozenset({0, 1, 2})

    def test_leaf_suppresses_down_rebroadcast(self):
        depth_of = lambda v, r: 3
        depth_of.cluster_radius = 3
        node = self._node(depth_of=depth_of)
        node.send(self._ctx(0))
        node.receive(self._ctx(0), [Message.broadcast(0, {1}, tag="down")])
        msgs = node.send(self._ctx(1))
        assert all(m.tag != "down" for m in msgs)

    def test_head_broadcasts_TA(self):
        node = self._node()
        msgs = node.send(self._ctx(0, role=Role.HEAD))
        assert msgs[0].tag == "down" and msgs[0].tokens == frozenset({0})


class TestDisseminationEndToEnd:
    def _run(self, d, seed=0, n=40, k=4, num_heads=4):
        params = DHopParams(n=n, num_heads=num_heads, T=6, phases=10, d=d,
                            L=2, reaffiliation_p=0.1, churn_p=0.0)
        scen = generate_dhop(params, seed=seed)
        M = scen.trace.horizon
        return scen, run(
            scen.trace, make_dhop_factory(M=M, scenario=scen), k=k,
            initial=initial_assignment(k, n, mode="spread"),
            max_rounds=M,
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_completes_at_each_radius(self, d):
        _, res = self._run(d)
        assert res.complete, res.missing()

    def test_latency_grows_with_radius(self):
        _, shallow = self._run(1, seed=5)
        _, deep = self._run(3, seed=5)
        assert shallow.complete and deep.complete
        assert deep.metrics.completion_round >= shallow.metrics.completion_round

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_randomised_completion(self, seed):
        _, res = self._run(2, seed=seed, n=30, k=3, num_heads=3)
        assert res.complete

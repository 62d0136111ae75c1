"""Tests for the Definition 2–8 property checkers, including the Fig. 2
lattice implications as hypothesis properties over generated scenarios."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.graphs.properties import (
    cluster_stable,
    definition_report,
    head_connected,
    head_connectivity_witness,
    head_hop_distance,
    head_set_stable,
    hierarchy_stable,
    is_hinet,
    is_T_interval_connected,
    is_T_L_head_connected,
    max_block_stable_hierarchy,
    max_interval_connectivity,
    realized_hop_bound,
    windows_of,
)
from repro.roles import Role
from repro.sim.topology import GraphTrace, Snapshot


def _clustered(head_of, roles, edges, n):
    return Snapshot.from_edges(n, edges, roles=roles, head_of=head_of)


def _simple(heads, n, edges, membership=None):
    roles = [Role.HEAD if v in heads else Role.MEMBER for v in range(n)]
    head_of = list(membership) if membership else [
        v if v in heads else min(heads) for v in range(n)
    ]
    return _clustered(head_of, roles, edges, n)


class TestWindows:
    def test_blocks_cover_with_partial_tail(self):
        assert list(windows_of(7, 3, "blocks")) == [(0, 3), (3, 6), (6, 7)]

    def test_sliding_all_offsets(self):
        assert list(windows_of(5, 3, "sliding")) == [(0, 3), (1, 4), (2, 5)]

    def test_sliding_short_horizon(self):
        assert list(windows_of(2, 5, "sliding")) == [(0, 2)]

    def test_invalid_T(self):
        with pytest.raises(ValueError):
            list(windows_of(5, 0))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            list(windows_of(5, 2, windows="diagonal"))


class TestStability:
    def _trace_head_flip(self):
        """Head set {0} for 2 rounds, then {1} for 2 rounds."""
        a = _simple({0}, 3, [(0, 1), (0, 2)])
        b = _simple({1}, 3, [(0, 1), (1, 2)])
        return GraphTrace([a, a, b, b])

    def test_head_set_stable_blocks(self):
        trace = self._trace_head_flip()
        assert head_set_stable(trace, 2, "blocks")
        assert not head_set_stable(trace, 4, "blocks")
        assert not head_set_stable(trace, 2, "sliding")  # window (1,3) mixes

    def test_cluster_stable_detects_member_moves(self):
        a = _simple({0, 3}, 4, [(0, 1), (0, 2), (0, 3)], membership=[0, 0, 0, 3])
        b = _simple({0, 3}, 4, [(0, 1), (2, 3), (0, 3)], membership=[0, 0, 3, 3])
        trace = GraphTrace([a, b])
        assert head_set_stable(trace, 2)
        assert not cluster_stable(trace, 0, 2)
        assert not cluster_stable(trace, 3, 2)
        assert not hierarchy_stable(trace, 2)
        assert cluster_stable(trace, 0, 1)

    def test_hierarchy_stable_equiv_to_parts(self, small_hinet):
        trace = small_hinet.trace
        T = small_hinet.params.T
        assert hierarchy_stable(trace, T, "blocks")
        assert head_set_stable(trace, T, "blocks")

    def test_max_block_stable_hierarchy(self):
        trace = self._trace_head_flip()
        assert max_block_stable_hierarchy(trace) == 2

    def test_max_block_constant_trace(self):
        a = _simple({0}, 2, [(0, 1)])
        trace = GraphTrace([a] * 5)
        assert max_block_stable_hierarchy(trace) == 5


class TestHeadConnectivity:
    def test_witness_exists_when_heads_linked(self):
        snap = _simple({0, 2}, 3, [(0, 1), (1, 2)], membership=[0, 0, 2])
        trace = GraphTrace([snap, snap])
        wit = head_connectivity_witness(trace, 0, 2)
        assert wit is not None
        assert {0, 2} <= set(wit.nodes())

    def test_no_witness_when_link_flickers(self):
        """Each round is connected, but no edge persists across the window."""
        a = _simple({0, 2}, 3, [(0, 1), (1, 2)], membership=[0, 0, 2])
        b = _simple({0, 2}, 3, [(0, 2), (0, 1)], membership=[0, 0, 2])
        trace = GraphTrace([a, b])
        assert head_connected(trace, 1)
        assert head_connectivity_witness(trace, 0, 2) is None
        assert not head_connected(trace, 2)

    def test_singleton_head_trivially_connected(self):
        snap = _simple({0}, 3, [(0, 1), (0, 2)])
        trace = GraphTrace([snap])
        assert head_connected(trace, 1)
        assert realized_hop_bound(trace, 1) == 0


class TestHopDistance:
    def test_direct_adjacency_is_one(self):
        g = nx.path_graph(4)
        assert head_hop_distance(g, frozenset({0, 1})) == 1

    def test_chain_bottleneck(self):
        # heads at 0, 2, 4 on a path: consecutive distance 2
        g = nx.path_graph(5)
        assert head_hop_distance(g, frozenset({0, 2, 4})) == 2

    def test_bottleneck_not_diameter(self):
        # heads 0 and 4 at distance 4, but head 2 relays: L = 2, not 4
        g = nx.path_graph(5)
        assert head_hop_distance(g, frozenset({0, 2, 4})) == 2
        assert head_hop_distance(g, frozenset({0, 4})) == 4

    def test_disconnected_heads_none(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1)
        assert head_hop_distance(g, frozenset({0, 3})) is None

    def test_trivial_head_sets(self):
        g = nx.path_graph(3)
        assert head_hop_distance(g, frozenset()) == 0
        assert head_hop_distance(g, frozenset({1})) == 0


class TestIntervalConnectivity:
    def test_static_connected_always(self):
        snap = Snapshot.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        trace = GraphTrace([snap] * 6)
        assert is_T_interval_connected(trace, 6)
        assert max_interval_connectivity(trace) == 6

    def test_disconnected_round_gives_zero(self):
        good = Snapshot.from_edges(3, [(0, 1), (1, 2)])
        bad = Snapshot.from_edges(3, [(0, 1)])
        trace = GraphTrace([good, bad])
        assert not is_T_interval_connected(trace, 1)
        assert max_interval_connectivity(trace) == 0

    def test_rotating_tree_is_exactly_1_interval(self):
        a = Snapshot.from_edges(3, [(0, 1), (1, 2)])
        b = Snapshot.from_edges(3, [(0, 2), (2, 1)])
        c = Snapshot.from_edges(3, [(1, 0), (0, 2)])
        trace = GraphTrace([a, b, c])
        assert max_interval_connectivity(trace) >= 1
        # every 2-window shares at least one common edge but must span all 3
        # nodes; here window (a, b) shares only (1,2)|(0,2)? compute honestly:
        assert is_T_interval_connected(trace, 1)

    def test_single_node_graph(self):
        trace = GraphTrace([Snapshot.from_edges(1, [])] * 3)
        assert is_T_interval_connected(trace, 3)

    def test_blocks_maximum_scans_past_a_failing_T(self):
        """Aligned blocks are not monotone in T: here T=1 and T=3 hold
        but T=2 fails (block [2, 4) keeps only edge 01)."""
        path = Snapshot.from_edges(3, [(0, 1), (1, 2)])
        star = Snapshot.from_edges(3, [(0, 1), (0, 2)])
        trace = GraphTrace([path] * 3 + [star] * 3)
        held = [T for T in range(1, 7) if is_T_interval_connected(trace, T, "blocks")]
        assert held == [1, 3]
        assert max_interval_connectivity(trace, "blocks") == 3
        assert max_interval_connectivity(trace, "sliding") == 1


class TestLatticeOnGenerated:
    def test_hinet_satisfies_definition8(self, small_hinet):
        p = small_hinet.params
        assert is_hinet(small_hinet.trace, p.T, p.L)
        assert is_T_L_head_connected(small_hinet.trace, p.T, p.L)

    def test_report_consistency(self, small_hinet):
        p = small_hinet.params
        rep = definition_report(small_hinet.trace, p.T, p.L)
        assert rep["HiNet"] == (rep["Th"] and rep["TdL"])
        assert rep["TdL"] == (rep["Td"] and rep["Lhop"])
        if rep["Th"]:
            assert rep["Ts"] and rep["Tc"]

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 5000), T=st.integers(2, 5))
    def test_sliding_implies_blocks(self, seed, T):
        """For any trace and any T: the sliding reading of each stability
        property implies the aligned-block reading."""
        from repro.graphs.generators.interval import t_interval_trace

        trace = t_interval_trace(10, T=T, rounds=3 * T, churn_p=0.2,
                                 seed=seed)
        for TT in (1, T, 2 * T):
            if is_T_interval_connected(trace, TT, windows="sliding"):
                assert is_T_interval_connected(trace, TT, windows="blocks")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), T=st.integers(2, 5))
    def test_sliding_implies_blocks_hierarchy(self, seed, T):
        params = HiNetParams(
            n=14, theta=4, num_heads=3, T=T, phases=3, L=2,
            reaffiliation_p=0.4, churn_p=0.05,
        )
        trace = generate_hinet(params, seed=seed).trace
        for TT in (1, T):
            if hierarchy_stable(trace, TT, "sliding"):
                assert hierarchy_stable(trace, TT, "blocks")
            if head_set_stable(trace, TT, "sliding"):
                assert head_set_stable(trace, TT, "blocks")

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        T=st.integers(2, 6),
        L=st.sampled_from([1, 2, 3]),
        heads=st.integers(2, 4),
        reaff=st.floats(0.0, 0.6),
    )
    def test_generated_hinet_always_verifies(self, seed, T, L, heads, reaff):
        """Generator soundness: every output is a verified (T, L)-HiNet and
        the Fig. 2 implications hold on it."""
        params = HiNetParams(
            n=16, theta=heads + 2, num_heads=heads, T=T, phases=3, L=L,
            reaffiliation_p=reaff, head_churn=1, churn_p=0.05,
        )
        scen = generate_hinet(params, seed=seed)
        rep = definition_report(scen.trace, T, L)
        assert rep["HiNet"], rep
        # lattice implications
        assert rep["Th"] and rep["Ts"] and rep["Tc"]
        assert rep["TdL"] and rep["Td"] and rep["Lhop"]
        # HiNet traces are 1-interval connected (members wired to heads)
        assert is_T_interval_connected(scen.trace, 1)

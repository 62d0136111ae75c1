"""Tests for static, interval, worst-case and Markovian generators."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators.interval import t_interval_trace
from repro.graphs.generators.markovian import edge_markovian_trace, stationary_density
from repro.graphs.generators.static import (
    complete_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_spanning_tree,
    ring_graph,
    static_trace,
)
from repro.graphs.generators.worstcase import (
    bottleneck_trace,
    rotating_star_trace,
    shuffled_path_trace,
)
from repro.graphs.properties import is_T_interval_connected, max_interval_connectivity


class TestStatic:
    def test_path(self):
        g = path_graph(4)
        assert g.number_of_edges() == 3

    def test_ring(self):
        g = ring_graph(5)
        assert all(d == 2 for _, d in g.degree())
        with pytest.raises(ValueError):
            ring_graph(2)

    def test_complete(self):
        assert complete_graph(5).number_of_edges() == 10

    def test_grid_relabelled_row_major(self):
        g = grid_graph(2, 3)
        assert g.has_edge(0, 1) and g.has_edge(0, 3)
        assert g.number_of_nodes() == 6

    def test_erdos_renyi_reproducible(self):
        a = erdos_renyi(20, 0.3, seed=5)
        b = erdos_renyi(20, 0.3, seed=5)
        assert set(a.edges()) == set(b.edges())

    def test_erdos_renyi_extremes(self):
        assert erdos_renyi(10, 0.0, seed=1).number_of_edges() == 0
        assert erdos_renyi(10, 1.0, seed=1).number_of_edges() == 45

    @given(n=st.integers(1, 40), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_spanning_tree_is_tree(self, n, seed):
        g = random_spanning_tree(n, seed=seed)
        assert g.number_of_nodes() == n
        assert g.number_of_edges() == n - 1 if n > 1 else g.number_of_edges() == 0
        assert nx.is_connected(g)

    def test_random_connected_always_connected(self):
        for seed in range(5):
            g = random_connected_graph(25, 0.02, seed=seed)
            assert nx.is_connected(g)

    def test_static_trace_interval_connectivity(self):
        trace = static_trace(path_graph(6), rounds=8)
        assert max_interval_connectivity(trace) == 8


class TestTInterval:
    def test_blocks_guarantee(self):
        trace = t_interval_trace(20, T=4, rounds=16, churn_p=0.1, seed=3)
        assert is_T_interval_connected(trace, 4, windows="blocks")

    def test_sliding_guarantee_with_overlap_guard(self):
        trace = t_interval_trace(20, T=4, rounds=16, churn_p=0.1, seed=3, sliding=True)
        assert is_T_interval_connected(trace, 4, windows="sliding")

    def test_always_1_interval_connected(self):
        trace = t_interval_trace(15, T=3, rounds=9, churn_p=0.0, seed=1)
        assert is_T_interval_connected(trace, 1)

    def test_reproducible(self):
        a = t_interval_trace(10, 3, 9, seed=7)
        b = t_interval_trace(10, 3, 9, seed=7)
        for r in range(9):
            assert a.snapshot(r).edge_set() == b.snapshot(r).edge_set()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            t_interval_trace(0, 1, 1)
        with pytest.raises(ValueError):
            t_interval_trace(5, 0, 1)
        with pytest.raises(ValueError):
            t_interval_trace(5, 1, 0)
        with pytest.raises(ValueError):
            t_interval_trace(5, 1, 1, churn_p=1.5)
        with pytest.raises(ValueError):
            t_interval_trace(5, 1, 1, spine="star")

    def test_path_spine_is_t_interval_connected(self):
        trace = t_interval_trace(16, T=4, rounds=16, churn_p=0.0, seed=3,
                                 spine="path")
        assert is_T_interval_connected(trace, 4, windows="sliding")
        # every round is exactly a path (degrees 1,1,2,...,2)
        degs = sorted(trace.snapshot(5).degree(v) for v in range(16))
        # boundary rounds may overlay two paths; check a mid-block round
        assert degs[0] >= 1

    def test_path_spine_slows_dissemination_vs_tree(self):
        """The adversarial spine pushes measured time toward the bound."""
        from repro.baselines.klo import make_klo_interval_factory
        from repro.sim.engine import run
        from repro.sim.messages import initial_assignment

        n, k, T, M = 24, 3, 8, 6
        init = initial_assignment(k, n, mode="spread")

        def complete_round(spine):
            trace = t_interval_trace(n, T=T, rounds=T * M, churn_p=0.0,
                                     seed=5, spine=spine)
            res = run(trace, make_klo_interval_factory(T=T, M=M), k=k,
                      initial=init, max_rounds=T * M)
            assert res.complete
            return res.metrics.completion_round

        assert complete_round("path") >= complete_round("tree")


class TestWorstCase:
    def test_shuffled_path_every_round_is_path(self):
        trace = shuffled_path_trace(12, rounds=6, seed=2)
        for r in range(6):
            snap = trace.snapshot(r)
            degs = sorted(snap.degree(v) for v in range(12))
            assert degs == [1, 1] + [2] * 10
        assert is_T_interval_connected(trace, 1)

    def test_shuffled_path_rewires(self):
        trace = shuffled_path_trace(12, rounds=2, seed=2)
        assert trace.snapshot(0).edge_set() != trace.snapshot(1).edge_set()

    def test_rotating_star_centres(self):
        trace = rotating_star_trace(5, rounds=3, stride=2)
        assert trace.snapshot(0).degree(0) == 4
        assert trace.snapshot(1).degree(2) == 4

    def test_bottleneck_single_bridge(self):
        trace = bottleneck_trace(10, rounds=4, seed=1)
        for r in range(4):
            snap = trace.snapshot(r)
            cross = [
                (u, v) for (u, v) in snap.edges() if (u < 5) != (v < 5)
            ]
            assert len(cross) == 1
        assert is_T_interval_connected(trace, 1)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            shuffled_path_trace(1, 3)
        with pytest.raises(ValueError):
            bottleneck_trace(3, 1)


class TestMarkovian:
    def test_stationary_density(self):
        assert stationary_density(0.1, 0.3) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            stationary_density(0.0, 0.0)

    def test_reproducible(self):
        a = edge_markovian_trace(10, 5, p=0.2, q=0.2, seed=11)
        b = edge_markovian_trace(10, 5, p=0.2, q=0.2, seed=11)
        for r in range(5):
            assert a.snapshot(r).edge_set() == b.snapshot(r).edge_set()

    def test_density_near_stationary(self):
        n, rounds = 30, 40
        trace = edge_markovian_trace(n, rounds, p=0.05, q=0.15, seed=4)
        total_slots = n * (n - 1) / 2 * rounds
        edges = sum(len(trace.snapshot(r).edges()) for r in range(rounds))
        assert edges / total_slots == pytest.approx(0.25, abs=0.05)

    def test_frozen_chain_p0_q0_keeps_initial_graph(self):
        trace = edge_markovian_trace(8, 6, p=0.0, q=0.0, seed=9,
                                     initial_density=0.4)
        first = trace.snapshot(0).edge_set()
        assert all(trace.snapshot(r).edge_set() == first for r in range(6))

    def test_ensure_connected(self):
        trace = edge_markovian_trace(
            20, 15, p=0.01, q=0.5, seed=3, ensure_connected=True
        )
        assert is_T_interval_connected(trace, 1)

    def test_death_rate_one_kills_all_edges(self):
        trace = edge_markovian_trace(8, 3, p=0.0, q=1.0, seed=2,
                                     initial_density=1.0)
        assert len(trace.snapshot(0).edges()) == 28
        assert len(trace.snapshot(1).edges()) == 0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            edge_markovian_trace(5, 2, p=1.5, q=0.1)
        with pytest.raises(ValueError):
            edge_markovian_trace(5, 2, p=0.1, q=0.1, initial_density=2.0)

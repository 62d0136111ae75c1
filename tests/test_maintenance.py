"""Tests for LCC hierarchy maintenance and hierarchy statistics."""

import pytest

from repro.clustering.maintenance import maintain_clustering
from repro.clustering.stats import hierarchy_stats
from repro.clustering.wcds import wcds_clustering
from repro.graphs.generators.interval import t_interval_trace
from repro.graphs.generators.static import path_graph, static_trace
from repro.graphs.generators.worstcase import shuffled_path_trace
from repro.graphs.properties import is_T_interval_connected
from repro.mobility.field import Field
from repro.mobility.unitdisk import unit_disk_trace
from repro.mobility.waypoint import RandomWaypoint
from repro.sim.topology import GraphTrace, Snapshot


class TestMaintainClustering:
    def test_output_is_valid_ctvg(self):
        trace = t_interval_trace(25, T=4, rounds=12, churn_p=0.05, seed=1)
        clustered, stats = maintain_clustering(trace)
        clustered.validate_hierarchy()
        assert clustered.horizon == trace.horizon

    def test_static_graph_no_churn(self):
        trace = static_trace(path_graph(9), rounds=6)
        clustered, stats = maintain_clustering(trace)
        assert stats.reaffiliations == 0
        assert stats.demotions == 0
        assert stats.elections == 0
        # same hierarchy every round
        first = (clustered.snapshot(0).roles, clustered.snapshot(0).head_of)
        for r in range(6):
            snap = clustered.snapshot(r)
            assert (snap.roles, snap.head_of) == first

    def test_member_promotes_when_isolated_from_heads(self):
        a = Snapshot.from_edges(3, [(0, 1), (0, 2)])  # head 0 covers 1, 2
        b = Snapshot.from_edges(3, [(0, 1)])  # member 2 cut off
        clustered, stats = maintain_clustering(GraphTrace([a, b]))
        assert stats.elections == 1
        assert clustered.snapshot(1).head(2) == 2

    def test_lcc_demotion_on_head_adjacency(self):
        # round 0: 0 and 2 both heads (path 0-1-2); round 1: edge 0-2 appears
        a = Snapshot.from_edges(3, [(0, 1), (1, 2)])
        b = Snapshot.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        clustered, stats = maintain_clustering(GraphTrace([a, b]))
        assert stats.demotions == 1
        assert clustered.snapshot(1).heads() == frozenset({0})

    def test_reaffiliation_counted(self):
        # node 2's head 0 moves out of range; head 3 in range
        a = Snapshot.from_edges(4, [(0, 1), (0, 2), (2, 3)])
        b = Snapshot.from_edges(4, [(0, 1), (2, 3)])
        clustered, stats = maintain_clustering(GraphTrace([a, b]))
        assert stats.reaffiliations >= 1

    def test_memoryless_mode_reclusters(self):
        trace = shuffled_path_trace(15, rounds=8, seed=2)
        clustered, stats = maintain_clustering(trace, lcc=False)
        clustered.validate_hierarchy()

    def test_custom_base_algorithm(self):
        trace = t_interval_trace(20, T=3, rounds=6, seed=3)
        clustered, stats = maintain_clustering(trace, base=wcds_clustering)
        clustered.validate_hierarchy()

    def test_stats_realized_L_tracked_per_round(self):
        trace = t_interval_trace(20, T=3, rounds=6, seed=4)
        _, stats = maintain_clustering(trace)
        assert len(stats.realized_L) == 6
        assert stats.max_realized_L is None or stats.max_realized_L >= 1

    def test_mobility_pipeline_end_to_end(self):
        f = Field(300, 300)
        traj = RandomWaypoint(n=25, field=f, v_min=10, v_max=30, seed=5).run(20)
        flat = unit_disk_trace(traj, radius=90, ensure_connected=True)
        clustered, stats = maintain_clustering(flat)
        clustered.validate_hierarchy()
        assert is_T_interval_connected(clustered, 1)
        assert stats.theta >= 1
        assert 0 <= stats.mean_members < 25


class TestHierarchyStats:
    def test_on_generated_hinet(self, small_hinet):
        st = hierarchy_stats(small_hinet.trace)
        p = small_hinet.params
        assert st.n == p.n
        assert st.theta <= p.theta
        assert st.stable_T % p.T == 0 or st.stable_T == p.T
        assert st.hop_bound_L is not None and st.hop_bound_L <= p.L
        assert st.mean_members == pytest.approx(small_hinet.mean_members)

    def test_as_cost_params(self, small_hinet):
        st = hierarchy_stats(small_hinet.trace)
        kw = st.as_cost_params(k=4, alpha=2)
        assert kw["n0"] == small_hinet.params.n
        assert kw["k"] == 4 and kw["alpha"] == 2

    def test_requires_clustered_trace(self):
        flat = static_trace(path_graph(4), rounds=2)
        with pytest.raises(ValueError):
            hierarchy_stats(flat)

"""Tests for stability-aware (MOBIC-style) clustering."""

import pytest

from repro.clustering.maintenance import maintain_clustering
from repro.clustering.stability import neighbor_churn, stability_clustering
from repro.graphs.generators.static import path_graph, static_trace
from repro.mobility import Field, RandomWaypoint, unit_disk_trace
from repro.sim.topology import GraphTrace, Snapshot


def _churny_trace():
    """Node 0's neighbourhood flaps; nodes 2, 3 are rock solid."""
    a = Snapshot.from_edges(4, [(0, 1), (2, 3), (1, 2)])
    b = Snapshot.from_edges(4, [(0, 2), (2, 3), (1, 2)])
    c = Snapshot.from_edges(4, [(0, 3), (2, 3), (1, 2)])
    return GraphTrace([a, b, c])


class TestNeighborChurn:
    def test_zero_at_round_zero(self):
        trace = _churny_trace()
        assert neighbor_churn(trace, 0) == [0, 0, 0, 0]

    def test_static_trace_zero_churn(self):
        trace = static_trace(path_graph(5), rounds=6)
        assert neighbor_churn(trace, 5) == [0] * 5

    def test_flapping_node_scores_high(self):
        trace = _churny_trace()
        churn = neighbor_churn(trace, 2, window=2)
        # node 0 changed neighbour each round; 2 and 3 saw symmetric churn
        assert churn[0] >= churn[1]
        assert churn[0] > 0

    def test_window_validated(self):
        with pytest.raises(ValueError):
            neighbor_churn(_churny_trace(), 1, window=0)

    def test_window_limits_lookback(self):
        trace = _churny_trace()
        short = neighbor_churn(trace, 2, window=1)
        long = neighbor_churn(trace, 2, window=5)
        assert all(s <= l for s, l in zip(short, long))


class TestStabilityClustering:
    def test_calm_nodes_become_heads(self):
        trace = _churny_trace()
        snap = trace.snapshot(2)
        asg = stability_clustering(snap, 2, trace)
        asg.validate(snap)
        # node 2 or 3 (calm, adjacent pair) should head rather than 0
        assert asg.heads & {1, 2, 3}

    def test_round_zero_falls_back_to_lowest_id(self):
        trace = static_trace(path_graph(5), rounds=3)
        snap = trace.snapshot(0)
        asg = stability_clustering(snap, 0, trace)
        # zero churn everywhere -> id order -> lowest-ID result
        assert asg.heads == frozenset({0, 2, 4})

    def test_pluggable_into_maintenance(self):
        field = Field(300, 300)
        traj = RandomWaypoint(n=20, field=field, v_min=10, v_max=40,
                              seed=23).run(25)
        flat = unit_disk_trace(traj, radius=100, ensure_connected=True)
        clustered, stats = maintain_clustering(flat, base=stability_clustering)
        clustered.validate_hierarchy()
        assert stats.theta >= 1

    def test_memoryless_mode_reelects_with_history(self):
        """lcc=False re-runs the 3-arg base every round — the pure
        stability-aware pipeline."""
        field = Field(300, 300)
        traj = RandomWaypoint(n=18, field=field, v_min=5, v_max=20,
                              seed=29).run(20)
        flat = unit_disk_trace(traj, radius=110, ensure_connected=True)
        clustered, stats = maintain_clustering(
            flat, base=stability_clustering, lcc=False
        )
        clustered.validate_hierarchy()

    def test_two_arg_bases_still_work(self):
        """Arity dispatch must not break history-free elections."""
        from repro.clustering.lowest_id import lowest_id_clustering

        trace = static_trace(path_graph(6), rounds=4)
        clustered, _ = maintain_clustering(trace, base=lowest_id_clustering)
        clustered.validate_hierarchy()

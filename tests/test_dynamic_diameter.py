"""Tests for dynamic diameter and flood-time computation."""

from repro.graphs.dynamic_diameter import dynamic_diameter, flood_times
from repro.graphs.generators.static import path_graph, static_trace
from repro.graphs.generators.worstcase import rotating_star_trace
from repro.sim.topology import GraphTrace, Snapshot


class TestFloodTimes:
    def test_static_path_matches_eccentricity(self):
        trace = static_trace(path_graph(5), rounds=10)
        assert flood_times(trace) == [4, 3, 2, 3, 4]

    def test_unreachable_is_none(self):
        trace = GraphTrace([Snapshot.from_edges(3, [(0, 1)])] * 4)
        times = flood_times(trace)
        assert times[2] is None


class TestDynamicDiameter:
    def test_static_equals_graph_diameter(self):
        trace = static_trace(path_graph(6), rounds=10)
        assert dynamic_diameter(trace) == 5

    def test_none_when_horizon_too_short(self):
        trace = static_trace(path_graph(6), rounds=3, extend="strict")
        assert dynamic_diameter(trace, horizon=3) is None

    def test_fixed_star_is_fast(self):
        """A static star (stride 0) has dynamic diameter 2."""
        trace = rotating_star_trace(8, rounds=10, stride=0)
        d = dynamic_diameter(trace)
        assert d == 2

    def test_rotating_star_is_adversarial(self):
        """Rotation blocks leaf-to-leaf relay: the uninformed centre keeps
        moving, so flooding needs ~n rounds — a genuinely hard 1-interval
        instance despite per-round diameter 2."""
        trace = rotating_star_trace(8, rounds=20, stride=1)
        d = dynamic_diameter(trace)
        assert d is not None and d >= 7  # n - 1: one new centre per round

    def test_multiple_starts_take_worst(self):
        """Dynamics can make later starts slower; the diameter is the max."""
        fast = Snapshot.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        slow = Snapshot.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        trace = GraphTrace([fast] + [slow] * 6)
        d0 = dynamic_diameter(trace, starts=[0])
        d1 = dynamic_diameter(trace, starts=[1])
        assert d1 >= d0
        assert dynamic_diameter(trace, starts=[0, 1]) == max(d0, d1)

    def test_dynamic_can_beat_every_snapshot_diameter(self):
        """The hallmark of dynamic reachability: a moving edge chain relays
        information although each snapshot is disconnected."""
        rounds = [
            [(0, 1)],
            [(1, 2)],
            [(2, 3)],
        ]
        trace = GraphTrace([Snapshot.from_edges(4, e) for e in rounds])
        times = flood_times(trace)
        assert times[0] == 3  # 0 reaches everyone via the moving edge
        assert times[3] is None  # but 3 cannot go backwards in time

"""Unit tests for repro.graphs.trace.GraphTrace."""

import dataclasses
import pickle

import networkx as nx
import pytest

from repro.experiments.cache import scenario_fingerprint
from repro.experiments.scenarios import hinet_interval_scenario
from repro.graphs.trace import GraphTrace
from repro.roles import Role
from repro.sim.topology import CSRNetwork, Snapshot


def _snap(edges, n=3):
    return Snapshot.from_edges(n, edges)


class TestConstruction:
    def test_requires_snapshots(self):
        with pytest.raises(ValueError):
            GraphTrace(snapshots=[])

    def test_requires_uniform_size(self):
        with pytest.raises(ValueError, match="nodes"):
            GraphTrace(snapshots=[_snap([], 3), _snap([], 4)])

    def test_invalid_extend_rejected(self):
        with pytest.raises(ValueError):
            GraphTrace(snapshots=[_snap([])], extend="forever")

    def test_from_networkx(self):
        trace = GraphTrace(
            [Snapshot.from_networkx(g) for g in (nx.path_graph(3), nx.cycle_graph(3))]
        )
        assert trace.horizon == 2
        assert trace.snapshot(1).degree(0) == 2

    def test_constant(self):
        trace = GraphTrace.constant(_snap([(0, 1)]), rounds=4)
        assert trace.horizon == 4
        assert all(s is trace.snapshots[0] for s in trace)


class TestExtension:
    def test_hold_repeats_last(self):
        trace = GraphTrace([_snap([(0, 1)]), _snap([(1, 2)])], extend="hold")
        assert trace.snapshot(100) is trace.snapshots[1]

    def test_cycle_wraps(self):
        trace = GraphTrace([_snap([(0, 1)]), _snap([(1, 2)])], extend="cycle")
        assert trace.snapshot(2) is trace.snapshots[0]
        assert trace.snapshot(3) is trace.snapshots[1]

    def test_strict_raises(self):
        trace = GraphTrace([_snap([])], extend="strict")
        with pytest.raises(IndexError):
            trace.snapshot(1)

    def test_negative_round_rejected(self):
        trace = GraphTrace([_snap([])])
        with pytest.raises(IndexError):
            trace.snapshot(-1)


class TestSlicing:
    def test_sliced(self):
        snaps = [_snap([(0, 1)]), _snap([(1, 2)]), _snap([(0, 2)])]
        trace = GraphTrace(snaps)
        sub = trace.sliced(1, 3)
        assert sub.horizon == 2
        assert sub.snapshot(0) is snaps[1]

    def test_sliced_bad_bounds(self):
        trace = GraphTrace([_snap([])])
        with pytest.raises(ValueError):
            trace.sliced(0, 2)

    def test_getitem_and_len(self):
        trace = GraphTrace([_snap([]), _snap([(0, 1)])])
        assert len(trace) == 2
        assert trace[1].degree(0) == 1


class TestClusteredTrace:
    def test_clustered_flag(self):
        flat = GraphTrace([_snap([(0, 1)])])
        assert not flat.clustered
        clustered = GraphTrace([
            Snapshot.from_edges(
                2, [(0, 1)],
                roles=[Role.HEAD, Role.MEMBER], head_of=[0, 0],
            )
        ])
        assert clustered.clustered

    def test_validate_hierarchy_reports_round(self):
        good = Snapshot.from_edges(
            2, [(0, 1)], roles=[Role.HEAD, Role.MEMBER], head_of=[0, 0]
        )
        bad = Snapshot.from_edges(
            2, [], roles=[Role.HEAD, Role.MEMBER], head_of=[0, 0]
        )
        trace = GraphTrace([good, bad])
        with pytest.raises(ValueError, match="round 1"):
            trace.validate_hierarchy()


class TestOneTraceType:
    def test_csr_network_is_graph_trace(self):
        assert CSRNetwork is GraphTrace

    def test_extend_is_read_only(self):
        # the trace memoizes its digest: a mutable policy would leave a
        # stale cache key behind
        trace = GraphTrace([_snap([(0, 1)])])
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.extend = "cycle"
        assert trace.extend == "hold"

    def test_pickle_round_trip(self):
        scenario = hinet_interval_scenario(n0=24, theta=6, k=4, alpha=2, L=2,
                                           seed=5)
        trace = scenario.trace
        trace.snapshot(0).adj  # fill the memos the pickle must not carry
        key = scenario_fingerprint(scenario)
        blob = pickle.dumps(trace)
        back = pickle.loads(blob)
        assert back._snap_memo == {} and back._digest is None
        assert back == trace
        assert scenario_fingerprint(dataclasses.replace(scenario, trace=back)) == key
        assert b"_snap_memo" not in blob and b"_digest" not in blob

    @pytest.mark.parametrize("extend", ["hold", "cycle"])
    def test_views_past_horizon_share_the_arrays(self, extend):
        trace = GraphTrace([_snap([(0, 1)]), _snap([(1, 2)]), _snap([])],
                           extend=extend)
        for r in range(8):
            assert trace.snapshot(r).arrays() is trace.snapshot_arrays(r)

    def test_arrays_and_snapshots_build_equal_traces(self):
        snaps = [_snap([(0, 1)]), _snap([(1, 2)])]
        from_arrays = GraphTrace([s.arrays() for s in snaps])
        assert from_arrays == GraphTrace(snaps)
        assert from_arrays != GraphTrace(snaps, extend="cycle")
        assert GraphTrace(snaps[0].arrays()).horizon == 1

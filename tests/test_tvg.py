"""Unit tests for the TVG formalism (presence, footprint, journeys)."""

import pytest

from repro.graphs.tvg import TVG
from repro.sim.topology import GraphTrace, Snapshot


def _trace(edge_rounds, n=4):
    return GraphTrace([Snapshot.from_edges(n, e) for e in edge_rounds])


class TestPresence:
    def test_rho_tracks_rounds(self):
        tvg = TVG(_trace([[(0, 1)], [(1, 2)]]))
        assert tvg.rho((0, 1), 0)
        assert not tvg.rho((0, 1), 1)
        assert tvg.rho((2, 1), 1)  # orientation-insensitive

    def test_zeta_constant_latency(self):
        tvg = TVG(_trace([[(0, 1)]]))
        assert tvg.zeta((0, 1), 0) == 1

    def test_latency_validated(self):
        with pytest.raises(ValueError):
            TVG(_trace([[(0, 1)]]), latency=0)

    def test_lifetime(self):
        tvg = TVG(_trace([[], [], []]))
        assert list(tvg.lifetime) == [0, 1, 2]


class TestDerivedGraphs:
    def test_footprint_is_union(self):
        tvg = TVG(_trace([[(0, 1)], [(1, 2)], [(2, 3)]]))
        fp = tvg.footprint()
        assert set(fp.edges()) == {(0, 1), (1, 2), (2, 3)}

    def test_snapshot_graph(self):
        tvg = TVG(_trace([[(0, 1)], [(1, 2)]]))
        g = tvg.snapshot_graph(1)
        assert set(g.edges()) == {(1, 2)}
        assert g.number_of_nodes() == 4

    def test_intersection(self):
        tvg = TVG(_trace([[(0, 1), (1, 2)], [(0, 1), (2, 3)]]))
        inter = tvg.intersection(0, 2)
        assert set(inter.edges()) == {(0, 1)}

    def test_intersection_empty_window_rejected(self):
        tvg = TVG(_trace([[(0, 1)]]))
        with pytest.raises(ValueError):
            tvg.intersection(1, 1)


class TestJourneys:
    def test_earliest_arrivals_moving_edge(self):
        """Information rides a moving edge: 0-1 then 1-2 then 2-3."""
        tvg = TVG(_trace([[(0, 1)], [(1, 2)], [(2, 3)]]))
        arr = tvg.earliest_arrivals(0)
        assert arr == {0: -1, 1: 0, 2: 1, 3: 2}

    def test_arrivals_cut_by_horizon(self):
        tvg = TVG(_trace([[(0, 1)], [], []]))
        arr = tvg.earliest_arrivals(0)
        assert 2 not in arr and 3 not in arr

    def test_missed_connection(self):
        """Edge (1,2) exists only BEFORE the token reaches 1 — no journey."""
        tvg = TVG(_trace([[(1, 2)], [(0, 1)], []], n=3))
        arr = tvg.earliest_arrivals(0)
        assert arr == {0: -1, 1: 1}

    def test_flood_time_path(self):
        snap = [(0, 1), (1, 2), (2, 3)]
        tvg = TVG(_trace([snap] * 5))
        assert tvg.flood_time(0) == 3
        assert tvg.flood_time(1) == 2

    def test_flood_time_none_when_unreachable(self):
        tvg = TVG(_trace([[(0, 1)]] * 3))
        assert tvg.flood_time(0) is None

    def test_flood_from_later_start(self):
        tvg = TVG(_trace([[], [(0, 1)], [(1, 2)], [(2, 3)]]))
        arr = tvg.earliest_arrivals(0, start=1)
        assert arr[3] == 3
        assert tvg.flood_time(0, start=1) == 3

    def test_bad_source_rejected(self):
        tvg = TVG(_trace([[]]))
        with pytest.raises(ValueError):
            tvg.earliest_arrivals(9)

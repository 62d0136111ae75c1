"""Tests for the mobility substrate: field, random waypoint, unit disk."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.properties import is_T_interval_connected
from repro.mobility.field import Field
from repro.mobility.unitdisk import (
    _pairs_triangle,
    unit_disk_edges,
    unit_disk_snapshot,
    unit_disk_trace,
)
from repro.mobility.waypoint import RandomWaypoint


class TestField:
    def test_uniform_positions_inside(self):
        f = Field(100, 50)
        pts = f.uniform_positions(200, seed=1)
        assert f.contains(pts)
        assert pts.shape == (200, 2)

    def test_clip(self):
        f = Field(10, 10)
        out = f.clip(np.array([[-5.0, 20.0], [3.0, 4.0]]))
        assert f.contains(out)
        assert out[1].tolist() == [3.0, 4.0]

    def test_diagonal(self):
        assert Field(3, 4).diagonal == pytest.approx(5.0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Field(0, 5)


class TestRandomWaypoint:
    def test_positions_stay_in_field(self):
        f = Field(100, 100)
        rw = RandomWaypoint(n=20, field=f, v_min=5, v_max=20, seed=3)
        traj = rw.run(50)
        assert traj.shape == (50, 20, 2)
        assert f.contains(traj.reshape(-1, 2))

    def test_reproducible(self):
        f = Field(100, 100)
        a = RandomWaypoint(n=5, field=f, seed=7).run(20)
        b = RandomWaypoint(n=5, field=f, seed=7).run(20)
        assert np.array_equal(a, b)

    def test_nodes_actually_move(self):
        f = Field(1000, 1000)
        rw = RandomWaypoint(n=10, field=f, v_min=10, v_max=10, seed=1)
        p0 = rw.positions.copy()
        p1 = rw.step()
        moved = np.hypot(*(p1 - p0).T)
        assert (moved > 0).all()
        # speed bound respected per round
        assert (moved <= 10 + 1e-9).all()

    def test_pause_halts_at_waypoint(self):
        f = Field(50, 50)
        rw = RandomWaypoint(n=1, field=f, v_min=100, v_max=100, pause=3, seed=2)
        rw.step()  # arrives (speed >= diagonal)
        p_arrived = rw.positions.copy()
        for _ in range(3):
            rw.step()
            assert np.allclose(rw.positions, p_arrived)  # pausing
        rw.step()
        assert not np.allclose(rw.positions, p_arrived)  # moving again

    def test_speed_validation(self):
        with pytest.raises(ValueError):
            RandomWaypoint(n=2, field=Field(), v_min=0, v_max=5)
        with pytest.raises(ValueError):
            RandomWaypoint(n=2, field=Field(), v_min=5, v_max=1)

    def test_run_validation(self):
        rw = RandomWaypoint(n=2, field=Field(), seed=0)
        with pytest.raises(ValueError):
            rw.run(0)


class TestUnitDisk:
    def test_edges_by_distance(self):
        pts = np.array([[0, 0], [1, 0], [3, 0]], dtype=float)
        assert unit_disk_edges(pts, radius=1.5) == [(0, 1)]
        assert unit_disk_edges(pts, radius=2.1) == [(0, 1), (1, 2)]
        assert unit_disk_edges(pts, radius=3.0) == [(0, 1), (0, 2), (1, 2)]

    def test_radius_boundary_inclusive(self):
        pts = np.array([[0, 0], [2, 0]], dtype=float)
        assert unit_disk_edges(pts, radius=2.0) == [(0, 1)]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            unit_disk_edges(np.zeros((3, 2)), radius=0)
        with pytest.raises(ValueError):
            unit_disk_edges(np.zeros((3, 3)), radius=1)

    @pytest.mark.parametrize("scan", ["kdtree", "no-scipy"])
    @pytest.mark.parametrize("n", [0, 1, 2, 50])
    @pytest.mark.parametrize("radius", [0.05, 0.2, 0.5, 1.5])
    def test_neighbour_scans_agree(self, monkeypatch, scan, n, radius):
        """The KD-tree scan and the upper-triangle fallback give one sorted
        edge list; ``unit_disk_edges`` takes the fallback without scipy."""
        pts = np.random.default_rng(100 + n).random((n, 2))
        expected = _pairs_triangle(pts, radius)
        assert expected == sorted(expected)
        if scan == "kdtree":
            pytest.importorskip("scipy.spatial")
        else:
            monkeypatch.setitem(sys.modules, "scipy.spatial", None)
        assert unit_disk_edges(pts, radius) == expected

    def test_snapshot(self):
        pts = np.array([[0, 0], [1, 0]], dtype=float)
        snap = unit_disk_snapshot(pts, radius=2)
        assert snap.neighbors(0) == frozenset({1})

    def test_trace_shapes(self):
        traj = np.zeros((4, 3, 2))
        trace = unit_disk_trace(traj, radius=1)
        assert trace.horizon == 4 and trace.n == 3

    def test_ensure_connected_patches(self):
        # two clusters far apart: disconnected without the patch
        traj = np.array([[[0, 0], [1, 0], [100, 0], [101, 0]]], dtype=float)
        plain = unit_disk_trace(traj, radius=2)
        patched = unit_disk_trace(traj, radius=2, ensure_connected=True)
        assert not is_T_interval_connected(plain, 1)
        assert is_T_interval_connected(patched, 1)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_mobility_pipeline_connected(self, seed):
        """waypoint -> unit disk with patching is always 1-interval connected."""
        f = Field(200, 200)
        traj = RandomWaypoint(n=12, field=f, seed=seed).run(10)
        trace = unit_disk_trace(traj, radius=60, ensure_connected=True)
        assert is_T_interval_connected(trace, 1)

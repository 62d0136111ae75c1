"""The window kernel behind Definitions 5–8 must give the answers of the
naive networkx oracle (one intersection graph, one BFS per head and one
Kruskal MST per window) on arbitrary clustered traces — checked as
hypothesis properties, failing traces and degenerate windows included —
and must not reach for networkx's BFS or MST at all."""

import os

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.graphs.properties import (
    definition_report,
    head_connected,
    head_connectivity_witness,
    head_hop_distance,
    is_hinet,
    is_T_interval_connected,
    is_T_L_head_connected,
    realized_hop_bound,
    windows_of,
)
from repro.obs.monitors import RoundView, StabilityMonitor
from repro.roles import Role
from repro.sim.topology import GraphTrace, Snapshot

from . import hinet_oracle as oracle

#: Nightly CI deepens every sweep (REPRO_HYPOTHESIS_SCALE=8); default 1.
_SCALE = int(os.environ.get("REPRO_HYPOTHESIS_SCALE", "1"))


# ---------------------------------------------------------------------------
# trace strategies
# ---------------------------------------------------------------------------

@st.composite
def clustered_traces(draw, max_n=9, max_horizon=11):
    """Runs of keyframes (one hierarchy and base edge set each), every
    round dropping a few base edges, so intersections thin out, head sets
    range from empty to all nodes, and many windows fail.  A base edge set
    often contains a random spanning tree or path, so sparse windows stay
    connected and hop bounds of 3 and more occur."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, max_n))
    horizon = draw(st.integers(1, max_horizon))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    drop = draw(st.sampled_from([0.0, 0.0, 0.05, 0.2]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    snaps = []
    while len(snaps) < horizon:
        size = rnd.choice([0, 1, n] + [rnd.randint(2, max(2, n // 2))] * 3)
        heads = sorted(rnd.sample(range(n), min(size, n)))
        roles = [Role.HEAD if v in heads else Role.MEMBER for v in range(n)]
        head_of = [
            v if v in heads else (rnd.choice(heads) if heads else None)
            for v in range(n)
        ]
        base = [e for e in pairs if rnd.random() < density]
        spine = rnd.choice(["tree", "tree", "path", None])
        if spine is not None:
            order = rnd.sample(range(n), n)
            base += [
                tuple(sorted((order[i], order[i - 1 if spine == "path" else rnd.randrange(i)])))
                for i in range(1, n)
            ]
        for _ in range(min(rnd.randint(1, 4), horizon - len(snaps))):
            edges = [e for e in base if rnd.random() >= drop]
            snaps.append(Snapshot.from_edges(n, edges, roles, head_of))
    return GraphTrace(snapshots=snaps)


@st.composite
def generated_hinets(draw):
    """Traces of the (T, L)-HiNet generator: backbones of 1–3 hops."""
    heads = draw(st.integers(2, 4))
    params = HiNetParams(
        n=draw(st.integers(14, 22)), theta=heads + 2, num_heads=heads,
        T=draw(st.integers(1, 4)), phases=draw(st.integers(1, 3)),
        L=draw(st.integers(1, 3)), reaffiliation_p=0.2,
        churn_p=draw(st.sampled_from([0.0, 0.1, 0.3])),
    )
    return generate_hinet(params, seed=draw(st.integers(0, 10_000))).trace


window_modes = st.sampled_from(["blocks", "sliding"])
Ts = st.integers(min_value=1, max_value=5)
Ls = st.integers(min_value=1, max_value=4)


# ---------------------------------------------------------------------------
# agreement with the oracle
# ---------------------------------------------------------------------------

class TestKernelAgreesWithOracle:
    @settings(max_examples=80 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, L=Ls, windows=window_modes)
    def test_is_T_L_head_connected(self, trace, T, L, windows):
        assert is_T_L_head_connected(trace, T, L, windows) == (
            oracle.is_T_L_head_connected(trace, T, L, windows)
        )

    @settings(max_examples=60 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, windows=window_modes)
    def test_realized_hop_bound(self, trace, T, windows):
        assert realized_hop_bound(trace, T, windows) == (
            oracle.realized_hop_bound(trace, T, windows)
        )

    @settings(max_examples=30 * _SCALE, deadline=None)
    @given(trace=generated_hinets(), T=Ts, L=Ls, windows=window_modes)
    def test_generated_hinets(self, trace, T, L, windows):
        assert realized_hop_bound(trace, T, windows) == (
            oracle.realized_hop_bound(trace, T, windows)
        )
        assert is_hinet(trace, T, L, windows) == oracle.is_hinet(trace, T, L, windows)

    @settings(max_examples=40 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, windows=window_modes)
    def test_head_connected(self, trace, T, windows):
        assert head_connected(trace, T, windows) == (
            oracle.head_connected(trace, T, windows)
        )

    @settings(max_examples=60 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, L=Ls, windows=window_modes)
    def test_is_hinet(self, trace, T, L, windows):
        assert is_hinet(trace, T, L, windows) == oracle.is_hinet(trace, T, L, windows)

    @settings(max_examples=60 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, windows=window_modes)
    def test_is_T_interval_connected(self, trace, T, windows):
        assert is_T_interval_connected(trace, T, windows) == (
            oracle.interval_connected(trace, T, windows)
        )
        # each window on its own, so no failing neighbour masks a wrong answer
        for start, stop in windows_of(trace.horizon, T, windows):
            window = GraphTrace(trace.snapshots[start:stop])
            assert is_T_interval_connected(window, stop - start, "blocks") == (
                oracle.interval_connected(window, stop - start, "blocks")
            )

    @settings(max_examples=40 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, windows=window_modes)
    def test_witness(self, trace, T, windows):
        for start, stop in windows_of(trace.horizon, T, windows):
            got = head_connectivity_witness(trace, start, stop)
            want = oracle.witness(trace, start, stop)
            if want is None:
                assert got is None
            else:
                assert set(got.nodes) == set(want.nodes)
                assert {frozenset(e) for e in got.edges} == {
                    frozenset(e) for e in want.edges
                }

    @settings(max_examples=60 * _SCALE, deadline=None)
    @given(
        rnd=st.randoms(use_true_random=False),
        n=st.integers(1, 12),
        density=st.sampled_from([0.1, 0.2, 0.4]),
        labels=st.sampled_from(["ints", "offset", "strings"]),
    )
    def test_head_hop_distance(self, rnd, n, density, labels):
        """Arbitrary node labels, self-loops, isolated and foreign heads."""
        name = {
            "ints": lambda v: v,
            "offset": lambda v: 100 + 7 * v,
            "strings": lambda v: f"v{v}",
        }[labels]
        g = nx.Graph()
        g.add_nodes_from(name(v) for v in range(n))
        g.add_edges_from(
            (name(u), name(v))
            for u in range(n) for v in range(u, n) if rnd.random() < density
        )
        heads = frozenset(name(v) for v in rnd.sample(range(n), rnd.randint(0, n)))
        if rnd.random() < 0.1:
            heads |= {name(n)}  # a head the graph does not contain
        assert head_hop_distance(g, heads) == oracle.hop_distance(g, heads)

    @settings(max_examples=30 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, L=Ls)
    def test_definition_report(self, trace, T, L):
        report = definition_report(trace, T, L)
        bound = oracle.realized_hop_bound(trace, T)
        assert report["Td"] == oracle.head_connected(trace, T)
        assert report["Lhop"] == (bound is not None and bound <= L)
        assert report["HiNet"] == oracle.is_hinet(trace, T, L)

    @settings(max_examples=30 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, L=Ls)
    def test_stability_monitor_backbone_violations(self, trace, T, L):
        """The monitor's per-block Definition 5/7 diagnostics are the ones
        the oracle's witness and MST bound call for."""
        mon = StabilityMonitor(T, L, member_adjacency=False)
        for r in range(trace.horizon):
            mon.observe(RoundView(
                round_index=r, snap=trace.snapshot(r), coverage=0,
                nodes_complete=0, per_node=[0] * trace.n, n=trace.n, k=1,
            ))
        got = [
            (v.round, v.message) for v in mon.violations
            if "Definition 5" in v.message or "Definition 7" in v.message
        ]
        want = []
        for start in range(0, trace.horizon - T + 1, T):
            end, phase = start + T - 1, start // T
            wit = oracle.witness(trace, start, start + T)
            if wit is None:
                want.append((end, f"no stable connected head backbone in phase "
                                  f"{phase} (Definition 5 violated)"))
                continue
            hop = oracle.hop_distance(wit, trace.snapshot(start).heads())
            if hop > L:
                want.append((end, f"head backbone hop bound {hop} exceeds L={L} "
                                  f"in phase {phase} (Definition 7 violated)"))
        assert got == want


# ---------------------------------------------------------------------------
# degenerate windows
# ---------------------------------------------------------------------------

def _snap(n, heads, edges):
    heads = sorted(heads)
    roles = [Role.HEAD if v in heads else Role.MEMBER for v in range(n)]
    head_of = [v if v in heads else (heads[0] if heads else None) for v in range(n)]
    return Snapshot.from_edges(n, edges, roles, head_of)


def _agree(trace, T, L, windows="blocks"):
    assert realized_hop_bound(trace, T, windows) == (
        oracle.realized_hop_bound(trace, T, windows)
    )
    assert is_T_L_head_connected(trace, T, L, windows) == (
        oracle.is_T_L_head_connected(trace, T, L, windows)
    )
    assert is_T_interval_connected(trace, T, windows) == (
        oracle.interval_connected(trace, T, windows)
    )


class TestDegenerateWindows:
    def test_no_heads(self):
        trace = GraphTrace([_snap(4, (), [(0, 1)])] * 3)
        assert realized_hop_bound(trace, 2) == 0
        _agree(trace, 2, 1)

    def test_one_head_with_empty_intersection(self):
        a = _snap(3, {1}, [(0, 1)])
        b = _snap(3, {1}, [(1, 2)])
        trace = GraphTrace([a, b])
        assert realized_hop_bound(trace, 2) == 0
        assert not is_T_interval_connected(trace, 2, "blocks")
        _agree(trace, 2, 1)

    def test_single_node(self):
        trace = GraphTrace([_snap(1, {0}, [])] * 4)
        assert is_hinet(trace, 3, 1)
        assert is_T_interval_connected(trace, 3, "blocks")
        _agree(trace, 3, 1)

    def test_empty_intersection_splits_heads(self):
        a = _snap(3, {0, 2}, [(0, 1), (1, 2)])
        b = _snap(3, {0, 2}, [(0, 2)])
        trace = GraphTrace([a, b])
        assert realized_hop_bound(trace, 1) == 2
        assert realized_hop_bound(trace, 2) is None
        assert not is_T_L_head_connected(trace, 2, 4)
        _agree(trace, 2, 4)

    def test_trailing_partial_block_is_checked(self):
        path = [(0, 1), (1, 2), (2, 3), (3, 4)]
        relayed = _snap(5, {0, 2, 4}, path)
        # blocks of 3: [0,3) [3,6) and the partial tail [6,7)
        split = GraphTrace([relayed] * 6 + [_snap(5, {0, 4}, path[:1] + path[2:])])
        assert realized_hop_bound(split, 3) is None
        assert not is_T_interval_connected(split, 3, "blocks")
        _agree(split, 3, 4)
        far = GraphTrace([relayed] * 6 + [_snap(5, {0, 4}, path)])
        assert realized_hop_bound(far, 3) == 4
        assert is_T_L_head_connected(far, 3, 4)
        assert not is_T_L_head_connected(far, 3, 3)
        _agree(far, 3, 3)

    def test_flood_does_not_bridge_components(self):
        # {0, 2} and {1, 3}: every node has a neighbour, node 0 reaches half
        trace = GraphTrace([_snap(4, {0}, [(0, 2), (1, 3)])] * 2)
        assert not is_T_interval_connected(trace, 2, "blocks")
        assert not is_T_interval_connected(trace, 1, "sliding")
        _agree(trace, 2, 1)

    def test_hop_bound_limit_zero(self):
        trace = GraphTrace([_snap(3, {0, 1}, [(0, 1), (1, 2)])])
        assert not is_T_L_head_connected(trace, 1, 0)
        single = GraphTrace([_snap(3, {0}, [(0, 1)])])
        assert is_T_L_head_connected(single, 1, 0)


# ---------------------------------------------------------------------------
# no networkx BFS or MST on the certification path
# ---------------------------------------------------------------------------

def test_is_hinet_needs_no_networkx_bfs_or_mst(monkeypatch):
    scen = generate_hinet(
        HiNetParams(n=30, theta=9, num_heads=5, T=1, phases=12, L=2,
                    reaffiliation_p=0.2, churn_p=0.05),
        seed=5,
    )

    spanning = oracle.interval_connected(scen.trace, 1, "blocks")

    def forbidden(*args, **kwargs):
        raise AssertionError("networkx BFS/MST reached from the certifier")

    for name in ("single_source_shortest_path_length", "minimum_spanning_tree",
                 "is_connected", "node_connected_component"):
        monkeypatch.setattr(nx, name, forbidden)
    assert is_hinet(scen.trace, 1, 2)
    assert realized_hop_bound(scen.trace, 1) <= 2
    assert is_T_interval_connected(scen.trace, 1, "blocks") == spanning


@pytest.mark.parametrize("windows", ["blocks", "sliding"])
def test_batches_split_under_the_budget(monkeypatch, windows):
    """Windows certified in many small batches give the one-batch answer."""
    import repro.graphs.properties as properties

    scen = generate_hinet(
        HiNetParams(n=24, theta=8, num_heads=4, T=3, phases=6, L=2,
                    reaffiliation_p=0.2, churn_p=0.05),
        seed=11,
    )
    trace = scen.trace
    whole = (
        realized_hop_bound(trace, 3, windows),
        is_T_L_head_connected(trace, 3, 1, windows),
        is_T_interval_connected(trace, 3, "blocks"),
    )
    monkeypatch.setattr(properties, "_BATCH_BUDGET", 64)
    assert (
        realized_hop_bound(trace, 3, windows),
        is_T_L_head_connected(trace, 3, 1, windows),
        is_T_interval_connected(trace, 3, "blocks"),
    ) == whole
    assert whole[0] == oracle.realized_hop_bound(trace, 3, windows)

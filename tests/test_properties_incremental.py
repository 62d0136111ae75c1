"""The incremental sliding-window property checkers must agree with the
naive per-window loops they replaced, on arbitrary traces — checked as
hypothesis properties — and must do O(horizon) round operations instead
of the naive O(horizon · T)."""

import os

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.properties as properties
from repro.graphs.properties import (
    cluster_stable,
    head_set_stable,
    hierarchy_stable,
    is_T_interval_connected,
    max_interval_connectivity,
    windows_of,
)
from repro.graphs.trace import GraphTrace
from repro.roles import Role
from repro.sim.topology import Snapshot

#: Nightly CI deepens every sweep (REPRO_HYPOTHESIS_SCALE=8); default 1.
_SCALE = int(os.environ.get("REPRO_HYPOTHESIS_SCALE", "1"))


# ---------------------------------------------------------------------------
# naive reference implementations (the pre-optimization semantics)
# ---------------------------------------------------------------------------

def naive_interval_connected(trace, T, windows):
    n = trace.n
    for start, stop in windows_of(trace.horizon, T, windows):
        common = None
        for r in range(start, stop):
            edges = trace.snapshot(r).edge_set()
            common = edges if common is None else common & edges
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(common or ())
        if n > 1 and not nx.is_connected(g):
            return False
    return True


def naive_max_interval(trace, windows):
    if not naive_interval_connected(trace, 1, windows):
        return 0
    best = 1
    for T in range(2, trace.horizon + 1):
        if naive_interval_connected(trace, T, windows):
            best = T
    return best


def hierarchy_key(snap):
    """Comparable summary of one snapshot's hierarchy (roles + memberships)."""
    if not snap.clustered:
        raise ValueError("snapshot carries no hierarchy information")
    arrs = snap.arrays()
    return (arrs.roles.tobytes(), arrs.head_of.tobytes())


def naive_stable(trace, T, windows, key):
    for start, stop in windows_of(trace.horizon, T, windows):
        first = key(trace.snapshot(start))
        for r in range(start + 1, stop):
            if key(trace.snapshot(r)) != first:
                return False
    return True


# ---------------------------------------------------------------------------
# trace strategies
# ---------------------------------------------------------------------------

@st.composite
def flat_traces(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    horizon = draw(st.integers(min_value=1, max_value=10))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    snaps = []
    for _ in range(horizon):
        edges = [e for e in all_pairs if draw(st.booleans())]
        snaps.append(Snapshot.from_edges(n, edges))
    return GraphTrace(snapshots=snaps)


@st.composite
def clustered_traces(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    distinct = draw(st.integers(min_value=1, max_value=4))
    keyframes = []
    for _ in range(distinct):
        head_count = draw(st.integers(min_value=1, max_value=n))
        heads = sorted(draw(
            st.sets(st.integers(0, n - 1), min_size=head_count, max_size=head_count)
        ))
        roles, head_of, adj = [], [], [set() for _ in range(n)]
        for v in range(n):
            if v in heads:
                roles.append(Role.HEAD)
                head_of.append(v)
            else:
                h = heads[draw(st.integers(0, len(heads) - 1))]
                roles.append(Role.MEMBER)
                head_of.append(h)
                adj[v].add(h)
                adj[h].add(v)
        keyframes.append(Snapshot(
            adj=tuple(frozenset(s) for s in adj),
            roles=tuple(roles),
            head_of=tuple(head_of),
        ))
    # stretch keyframes into runs so some windows are genuinely stable
    snaps = []
    for frame in keyframes:
        snaps.extend([frame] * draw(st.integers(min_value=1, max_value=4)))
    return GraphTrace(snapshots=snaps)


window_modes = st.sampled_from(["sliding", "blocks"])
Ts = st.integers(min_value=1, max_value=12)


# ---------------------------------------------------------------------------
# agreement properties
# ---------------------------------------------------------------------------

class TestIncrementalAgreesWithNaive:
    @settings(max_examples=60 * _SCALE, deadline=None)
    @given(trace=flat_traces(), T=Ts, windows=window_modes)
    def test_interval_connectivity(self, trace, T, windows):
        assert is_T_interval_connected(trace, T, windows) == (
            naive_interval_connected(trace, T, windows)
        )

    @settings(max_examples=40 * _SCALE, deadline=None)
    @given(trace=flat_traces(), windows=window_modes)
    def test_max_interval_connectivity(self, trace, windows):
        assert max_interval_connectivity(trace, windows) == (
            naive_max_interval(trace, windows)
        )

    @settings(max_examples=40 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, windows=window_modes)
    def test_head_set_stable(self, trace, T, windows):
        assert head_set_stable(trace, T, windows) == (
            naive_stable(trace, T, windows, lambda s: s.heads())
        )

    @settings(max_examples=40 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, windows=window_modes)
    def test_hierarchy_stable(self, trace, T, windows):
        assert hierarchy_stable(trace, T, windows) == (
            naive_stable(trace, T, windows, hierarchy_key)
        )

    @settings(max_examples=30 * _SCALE, deadline=None)
    @given(trace=clustered_traces(), T=Ts, windows=window_modes)
    def test_cluster_stable(self, trace, T, windows):
        clusters_ever = set()
        for r in range(trace.horizon):
            clusters_ever |= set(trace.snapshot(r).clusters())
        for c in clusters_ever:
            assert cluster_stable(trace, c, T, windows) == naive_stable(
                trace, T, windows, lambda s: s.cluster_members(c)
            )

    @settings(max_examples=40 * _SCALE, deadline=None)
    @given(trace=flat_traces(), T=Ts)
    def test_sliding_implies_blocks(self, trace, T):
        # the documented lattice relation must survive the rewrite
        if is_T_interval_connected(trace, T, "sliding"):
            assert is_T_interval_connected(trace, T, "blocks")


# ---------------------------------------------------------------------------
# the O(horizon) guarantee
# ---------------------------------------------------------------------------

def _static_path_trace(n, horizon):
    adj = tuple(
        frozenset(u for u in (v - 1, v + 1) if 0 <= u < n) for v in range(n)
    )
    return GraphTrace(snapshots=[Snapshot(adj=adj)] * horizon)


class TestOperationCounts:
    def test_sliding_check_is_linear_in_horizon(self):
        """200-round trace, T=20: every round enters and leaves the running
        window exactly once — ≤ 2·horizon round operations, where the naive
        loop would do (horizon − T + 1) · T ≈ 3600."""
        trace = _static_path_trace(10, 200)
        properties._intersection_round_ops = 0
        assert is_T_interval_connected(trace, 20, "sliding")
        ops = properties._intersection_round_ops
        assert ops <= 2 * trace.horizon
        naive_ops = (trace.horizon - 20 + 1) * 20
        assert ops * 5 < naive_ops  # an order of magnitude better

    def test_failing_window_stops_early(self):
        # a disconnected round makes some window fail without a full slide
        n = 4
        connected = Snapshot.from_edges(n, [(0, 1), (1, 2), (2, 3)])
        broken = Snapshot.from_edges(n, [(0, 1)])
        trace = GraphTrace(snapshots=[connected] * 50 + [broken] + [connected] * 50)
        properties._intersection_round_ops = 0
        assert not is_T_interval_connected(trace, 5, "sliding")
        assert properties._intersection_round_ops <= 2 * trace.horizon

    def test_max_interval_uses_binary_search(self):
        """With sliding windows, max_interval_connectivity needs only
        O(log horizon) full checks — O(horizon log horizon) round ops —
        rather than the linear scan's O(horizon²)."""
        trace = _static_path_trace(6, 256)
        properties._intersection_round_ops = 0
        assert max_interval_connectivity(trace, "sliding") == trace.horizon
        ops = properties._intersection_round_ops
        # 1 + ceil(log2(256)) = 9 checks, each <= 2*horizon ops
        assert ops <= 2 * trace.horizon * 10

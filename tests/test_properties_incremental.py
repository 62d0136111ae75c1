"""The sliding-window property checkers must agree with the naive
per-window loops they replaced, on arbitrary traces — checked as
hypothesis properties — and must read each round's edges once per check
instead of once per window holding it, the naive O(horizon · T)."""

import os

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.properties as properties
from repro.graphs.properties import (
    cluster_stable,
    head_connectivity_witness,
    head_set_stable,
    hierarchy_stable,
    is_hinet,
    is_T_interval_connected,
    max_interval_connectivity,
    realized_hop_bound,
    windows_of,
)
from repro.experiments.scenarios import hinet_one_scenario
from repro.roles import Role
from repro.sim.topology import GraphTrace, Snapshot

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
# one pass over the trace
# ---------------------------------------------------------------------------

def _static_path_trace(n, horizon):
    adj = tuple(
        frozenset(u for u in (v - 1, v + 1) if 0 <= u < n) for v in range(n)
    )
    return GraphTrace(snapshots=[Snapshot(adj=adj)] * horizon)


@pytest.fixture
def rounds_read(monkeypatch):
    """The rounds whose edge keys a check extracts, in call order: the
    round of the last ``snapshot_arrays`` call before each ``_edge_keys``."""
    last, seen = [None], []
    arrays, keys = GraphTrace.snapshot_arrays, properties._edge_keys

    def snapshot_arrays(self, r):
        last[0] = r
        return arrays(self, r)

    def edge_keys(arrs):
        seen.append(last[0])
        return keys(arrs)

    monkeypatch.setattr(GraphTrace, "snapshot_arrays", snapshot_arrays)
    monkeypatch.setattr(properties, "_edge_keys", edge_keys)
    return seen


class TestOnePass:
    def test_sliding_check_reads_each_round_once(self, rounds_read):
        """200-round trace, T=20: 200 key extractions, where a per-window
        loop would do (horizon − T + 1) · T = 3620."""
        trace = _static_path_trace(10, 200)
        assert is_T_interval_connected(trace, 20, "sliding")
        assert rounds_read == list(range(trace.horizon))

    def test_failing_sliding_check_reads_each_round_once(self, rounds_read):
        n = 4
        connected = Snapshot.from_edges(n, [(0, 1), (1, 2), (2, 3)])
        broken = Snapshot.from_edges(n, [(0, 1)])
        trace = GraphTrace(snapshots=[connected] * 50 + [broken] + [connected] * 50)
        assert not is_T_interval_connected(trace, 5, "sliding")
        assert rounds_read == list(range(trace.horizon))

    @pytest.mark.parametrize("windows", ["sliding", "blocks"])
    def test_max_interval_reads_each_round_once(self, rounds_read, windows):
        """One longest-window pass answers every T, where a check per T
        tried would read each round once per T."""
        trace = _static_path_trace(6, 256)
        assert max_interval_connectivity(trace, windows) == trace.horizon
        assert rounds_read == list(range(trace.horizon))

    def test_checks_on_one_trace_share_one_extraction(self, rounds_read):
        """A (1, L)-HiNet certificate, ``is_hinet(·, 1, L)`` then
        ``is_T_interval_connected(·, 1)``, reads every round once; later
        checks and witnesses on the same trace read nothing new."""
        scenario = hinet_one_scenario(n0=40, theta=12, k=6, L=2, seed=3,
                                      verify=False)
        trace = scenario.trace
        assert is_hinet(trace, 1, 2)
        assert is_T_interval_connected(trace, 1)
        assert rounds_read == list(range(trace.horizon))
        assert max_interval_connectivity(trace, "sliding") >= 1
        assert head_connectivity_witness(trace, 3, 4) is not None
        assert rounds_read == list(range(trace.horizon))
        # a fresh trace of the same rounds extracts them afresh
        assert is_T_interval_connected(GraphTrace(trace.snapshots), 1)
        assert rounds_read == 2 * list(range(trace.horizon))

    def test_memoized_keys_are_read_only(self):
        trace = _static_path_trace(5, 3)
        assert is_T_interval_connected(trace, 2)
        keys = properties._round_keys(trace, 1)
        assert keys is properties._round_keys(trace, 1)
        assert not keys.flags.writeable
        assert keys.tolist() == [1, 7, 13, 19]

    def test_witness_reads_only_its_window(self, rounds_read):
        path = _clustered(5, [(0, 1), (1, 2), (2, 3), (3, 4)], {0, 4})
        trace = GraphTrace([path] * 400)
        witness = head_connectivity_witness(trace, 150, 157)
        assert set(witness.nodes) == set(range(5))
        assert rounds_read == list(range(150, 157))


# ---------------------------------------------------------------------------
# runs of presence end where an edge leaves
# ---------------------------------------------------------------------------

def _clustered(n, edges, heads):
    roles = [Role.HEAD if v in heads else Role.MEMBER for v in range(n)]
    head_of = [v if v in heads else min(heads) for v in range(n)]
    return Snapshot.from_edges(n, edges, roles, head_of)


def _gap_trace():
    """Edge 1–2 is present in rounds 0–2, gone in round 3 and back in
    rounds 4–5; edge 0–2 covers it from round 3 on, and 0–1 never
    leaves.  Heads are 1 and 2."""
    rounds = [
        [(0, 1), (1, 2)],
        [(0, 1), (1, 2)],
        [(0, 1), (1, 2)],
        [(0, 1), (0, 2)],
        [(0, 1), (0, 2), (1, 2)],
        [(0, 1), (0, 2), (1, 2)],
    ]
    return GraphTrace([_clustered(3, edges, {1, 2}) for edges in rounds])


class TestRunBoundaries:
    def test_window_straddling_the_gap_loses_the_edge(self):
        trace = _gap_trace()
        # blocks [0,3) and [3,6) each keep a spanning tree ...
        assert is_T_interval_connected(trace, 3, "blocks")
        # ... but sliding [1,4) and [2,5) keep only 0–1
        assert not is_T_interval_connected(trace, 3, "sliding")
        assert is_T_interval_connected(trace, 1, "sliding")
        assert not is_T_interval_connected(trace, 2, "sliding")
        assert max_interval_connectivity(trace, "sliding") == 1
        assert max_interval_connectivity(trace, "blocks") == 3

    def test_longest_windows(self):
        assert properties._longest_windows(_gap_trace()).tolist() == [3, 2, 1, 3, 2, 1]

    def test_witness_after_round_zero(self):
        trace = _gap_trace()
        assert head_connectivity_witness(trace, 1, 4) is None
        assert head_connectivity_witness(trace, 2, 5) is None
        late = head_connectivity_witness(trace, 3, 6)
        assert {frozenset(e) for e in late.edges} == {frozenset((0, 1)), frozenset((0, 2))}
        back = head_connectivity_witness(trace, 4, 6)
        assert {frozenset(e) for e in back.edges} == {
            frozenset((0, 1)), frozenset((0, 2)), frozenset((1, 2))
        }

    def test_realized_hop_bound(self):
        trace = _gap_trace()
        # blocks: heads adjacent in [0,3), two hops apart via 0 in [3,6)
        assert realized_hop_bound(trace, 3, "blocks") == 2
        assert realized_hop_bound(trace, 3, "sliding") is None
        assert realized_hop_bound(trace, 2, "sliding") is None

    def test_keys_past_sixteen_bits(self):
        """At n=300, edge 0–150 (key 150) and edge 218–286 (key 65 686)
        share their low 16 bits; each keeps its own run."""
        both = [(0, 150), (218, 286)]
        trace = GraphTrace([
            Snapshot.from_edges(300, edges) for edges in (both, both, both[:1], both)
        ])
        keys, offsets, runs = properties._edge_runs(trace, 0, trace.horizon, True)
        assert keys.tolist() == [150, 65686, 150, 65686, 150, 150, 65686]
        assert offsets.tolist() == [0, 2, 4, 5, 7]
        assert runs.tolist() == [4, 2, 3, 1, 2, 1, 1]

    def test_sliding_and_blocks_differ_above_one(self):
        """Path 0–1–2 for rounds 0–2, both paths in rounds 3–4 and path
        0–2–1 for rounds 5–7: blocks of 4 or 5 never straddle both pure
        stretches, sliding windows of 4 do."""
        a, b = [(0, 1), (1, 2)], [(0, 2), (1, 2)]
        trace = GraphTrace(
            [Snapshot.from_edges(3, a)] * 3
            + [Snapshot.from_edges(3, [(0, 1), (0, 2), (1, 2)])] * 2
            + [Snapshot.from_edges(3, b)] * 3
        )
        assert max_interval_connectivity(trace, "sliding") == 3
        assert max_interval_connectivity(trace, "blocks") == 5


def naive_longest_windows(trace):
    """Per start round ``i``: the longest ``t`` whose window ``[i, i+t)``
    within the trace is connected, ``0`` if none is."""
    return [
        max((t for t in range(1, trace.horizon - i + 1) if naive_interval_connected(
            GraphTrace(trace.snapshots[i:i + t]), t, "blocks")), default=0)
        for i in range(trace.horizon)
    ]


@settings(max_examples=60 * _SCALE, deadline=None)
@given(trace=flat_traces())
def test_longest_windows_agree_with_a_per_start_scan(trace):
    assert properties._longest_windows(trace).tolist() == naive_longest_windows(trace)

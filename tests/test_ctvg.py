"""Unit tests for the CTVG formalism (C and I maps, derived sets, n_r/n_m)."""

import pytest

from repro.clustering.maintenance import maintain_clustering
from repro.graphs.ctvg import CTVG
from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.graphs.generators.interval import t_interval_trace
from repro.roles import Role
from repro.sim.topology import GraphTrace, Snapshot


def _clustered(head_of, roles, edges, n):
    return Snapshot.from_edges(n, edges, roles=roles, head_of=head_of)


def _two_phase_trace():
    """Round 0: node 2 in cluster 0; round 1: node 2 re-affiliates to 3."""
    r0 = _clustered(
        head_of=[0, 0, 0, 3, 3],
        roles=[Role.HEAD, Role.GATEWAY, Role.MEMBER, Role.HEAD, Role.MEMBER],
        edges=[(0, 1), (0, 2), (1, 3), (3, 4)],
        n=5,
    )
    r1 = _clustered(
        head_of=[0, 0, 3, 3, 3],
        roles=[Role.HEAD, Role.GATEWAY, Role.MEMBER, Role.HEAD, Role.MEMBER],
        edges=[(0, 1), (2, 3), (1, 3), (3, 4)],
        n=5,
    )
    return GraphTrace([r0, r1])


class TestMaps:
    def test_requires_clustered_trace(self):
        flat = GraphTrace([Snapshot.from_edges(2, [(0, 1)])])
        with pytest.raises(ValueError):
            CTVG(flat)

    def test_C_map(self):
        ctvg = CTVG(_two_phase_trace())
        assert ctvg.C(0, 0) is Role.HEAD
        assert ctvg.C(1, 0) is Role.GATEWAY
        assert ctvg.C(2, 1) is Role.MEMBER

    def test_I_map(self):
        ctvg = CTVG(_two_phase_trace())
        assert ctvg.I(2, 0) == 0
        assert ctvg.I(2, 1) == 3

    def test_validation_on_construction(self):
        bad = _clustered(
            head_of=[0, 0], roles=[Role.HEAD, Role.MEMBER], edges=[], n=2
        )
        with pytest.raises(ValueError):
            CTVG(GraphTrace([bad]))
        CTVG(GraphTrace([bad]), validate=False)  # escape hatch


class TestDerivedSets:
    def test_head_set(self):
        ctvg = CTVG(_two_phase_trace())
        assert ctvg.head_set(0) == frozenset({0, 3})

    def test_members(self):
        ctvg = CTVG(_two_phase_trace())
        assert ctvg.members(0, 0) == frozenset({0, 1, 2})
        assert ctvg.members(0, 1) == frozenset({0, 1})

    def test_gateways_and_ordinary(self):
        ctvg = CTVG(_two_phase_trace())
        assert ctvg.gateways(0) == frozenset({1})
        assert ctvg.ordinary_members(0) == frozenset({2, 4})

    def test_clusters(self):
        ctvg = CTVG(_two_phase_trace())
        assert ctvg.clusters(1) == {
            0: frozenset({0, 1}),
            3: frozenset({2, 3, 4}),
        }

    def test_distinct_heads(self):
        ctvg = CTVG(_two_phase_trace())
        assert ctvg.distinct_heads() == frozenset({0, 3})


class TestChurnStatistics:
    def test_head_changes_counts_reaffiliation(self):
        ctvg = CTVG(_two_phase_trace())
        assert ctvg.head_changes(2) == 1
        assert ctvg.head_changes(4) == 0

    def test_mean_reaffiliations(self):
        ctvg = CTVG(_two_phase_trace())
        # ever plain members: {2, 4}; total re-affiliations: 1
        assert ctvg.mean_reaffiliations() == pytest.approx(0.5)

    def test_mean_member_count(self):
        ctvg = CTVG(_two_phase_trace())
        assert ctvg.mean_member_count() == pytest.approx(2.0)

    def test_hinet_generator_stats_consistency(self, small_hinet):
        """The generator's online n_r accounting matches the CTVG recount."""
        assert small_hinet.empirical_nr() >= 0
        ctvg = CTVG(small_hinet.trace, validate=False)
        assert small_hinet.empirical_nr() == pytest.approx(
            ctvg.mean_reaffiliations()
        )


def _loop_head_changes(trace, v, stop):
    changes, prev = 0, trace.snapshot(0).head(v)
    for t in range(1, stop):
        cur = trace.snapshot(t).head(v)
        if cur is not None and cur != prev:
            changes += 1
        prev = cur
    return changes


def _loop_statistics(trace):
    """Per-node loop reference for the array statistics:
    (n_r, n_m, distinct heads, per-node head changes)."""
    h, n = trace.horizon, trace.n
    member_ever = {v for t in range(h) for v in range(n)
                   if trace.snapshot(t).role(v) is Role.MEMBER}
    changes = [_loop_head_changes(trace, v, h) for v in range(n)]
    nr = (sum(changes[v] for v in member_ever) / len(member_ever)
          if member_ever else 0.0)
    nm = sum(1 for t in range(h) for v in range(n)
             if trace.snapshot(t).role(v) is Role.MEMBER) / h
    heads = frozenset(v for t in range(h) for v in range(n)
                      if trace.snapshot(t).role(v) is Role.HEAD)
    return nr, nm, heads, changes


def _reference_traces():
    yield _two_phase_trace()
    for seed, T, head_churn in ((1, 1, 2), (2, 3, 1), (3, 5, 0)):
        params = HiNetParams(n=24, theta=8, num_heads=5, T=T, phases=6, L=2,
                             reaffiliation_p=0.4, head_churn=head_churn)
        yield generate_hinet(params, seed=seed).trace
    # frozenset-built snapshots from the maintenance pipeline
    clustered, _ = maintain_clustering(t_interval_trace(18, 2, 10, seed=4))
    yield clustered
    # node 4 leaves its cluster for a round, then rejoins it
    roles = [Role.HEAD, Role.GATEWAY, Role.MEMBER, Role.HEAD, Role.MEMBER]
    edges = [(0, 1), (0, 2), (1, 3), (3, 4)]
    yield GraphTrace([
        _clustered([0, 0, 0, 3, h], roles, edges, 5) for h in (3, None, 3, 3)
    ])


class TestStatisticsMatchLoopReference:
    @pytest.mark.parametrize("index", range(6))
    def test_array_statistics_equal_loops(self, index):
        trace = list(_reference_traces())[index]
        ctvg = CTVG(trace, validate=False)
        nr, nm, heads, changes = _loop_statistics(trace)
        assert ctvg.mean_reaffiliations() == nr
        assert ctvg.mean_member_count() == nm
        assert ctvg.distinct_heads() == heads
        assert [ctvg.head_changes(v) for v in range(trace.n)] == changes
        for upto in (0, 1, 2, trace.horizon // 2):
            for v in (1, 4):
                assert ctvg.head_changes(v, upto=upto) == _loop_head_changes(trace, v, upto)

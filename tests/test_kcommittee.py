"""Tests for KLO's k-committee election and counting-by-doubling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.kcommittee import (
    KCommitteeNode,
    klo_counting,
    stage_rounds,
)
from repro.graphs.generators.static import (
    complete_graph,
    path_graph,
    ring_graph,
    static_trace,
)
from repro.graphs.generators.worstcase import shuffled_path_trace
from repro.sim.engine import run
from repro.sim.network import ShiftedNetwork
from repro.sim.topology import GraphTrace, Snapshot


def _stage(trace, n, k):
    return run(
        trace,
        lambda v, kk, init: KCommitteeNode(v, kk, init, param_k=k),
        k=0,
        initial={},
        max_rounds=stage_rounds(k),
        stop_when_finished=False,
    )


class TestStageRounds:
    def test_formula(self):
        assert stage_rounds(1) == 3  # 2*1*1 + 1 (floored phase)
        assert stage_rounds(4) == 2 * 4 * 3 + 4

    def test_validation(self):
        with pytest.raises(ValueError):
            stage_rounds(0)
        with pytest.raises(ValueError):
            KCommitteeNode(0, 0, frozenset(), param_k=0)


class TestSingleStage:
    def test_k_at_least_n_forms_single_committee(self):
        n, k = 5, 8
        res = _stage(static_trace(path_graph(n), rounds=1), n, k)
        committees = {a.committee for a in res.algorithms.values()}
        assert committees == {0}  # everyone joined the min-id leader
        assert all(a.accept for a in res.algorithms.values())

    def test_k_too_small_rejects(self):
        n, k = 8, 2
        res = _stage(static_trace(path_graph(n), rounds=1), n, k)
        assert not all(a.accept for a in res.algorithms.values())

    def test_committee_size_bounded(self):
        """A leader admits at most one node per cycle: |committee| <= k+1."""
        n, k = 12, 4
        res = _stage(static_trace(complete_graph(n), rounds=1), n, k)
        sizes = {}
        for a in res.algorithms.values():
            if a.committee is not None:
                sizes[a.committee] = sizes.get(a.committee, 0) + 1
        assert sizes and all(s <= k + 1 for s in sizes.values())

    def test_verification_detects_boundary(self):
        """Two committees sharing an edge must reject in verification."""
        n, k = 6, 2
        res = _stage(static_trace(ring_graph(n), rounds=1), n, k)
        assert not all(a.accept for a in res.algorithms.values())


class TestCountingLoop:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_two_approximation_static(self, n):
        out = klo_counting(static_trace(path_graph(n), rounds=1))
        assert n <= 2 * out.k
        assert out.k < 2 * n
        # the accepted stage has a single committee covering everyone
        leaders = {c for c in out.committees.values()}
        assert len(leaders) == 1

    def test_two_approximation_dynamic(self):
        n = 9
        trace = shuffled_path_trace(n, rounds=2000, seed=4)
        out = klo_counting(trace)
        assert n <= 2 * out.k < 4 * n

    def test_stage_diagnostics(self):
        out = klo_counting(static_trace(path_graph(5), rounds=1))
        ks = [s["k"] for s in out.stages]
        assert ks == sorted(ks)
        assert out.stages[-1]["accepted"]
        assert all(not s["accepted"] for s in out.stages[:-1])
        assert out.rounds_used == sum(s["rounds"] for s in out.stages)
        assert out.tokens_sent == sum(s["tokens"] for s in out.stages)

    def test_max_k_exhaustion_raises(self):
        # budget below what n=8 needs: all tried stages reject
        with pytest.raises(RuntimeError, match="did not accept"):
            klo_counting(static_trace(path_graph(8), rounds=1), max_k=2)

    def test_disconnected_network_fools_verification(self):
        """Documented limitation inherited from KLO: without 1-interval
        connectivity, each component verifies its own committee and the
        count is wrong — connectivity is a *precondition*, not detected."""
        snap = Snapshot.from_edges(4, [(0, 1), (2, 3)])
        out = klo_counting(GraphTrace([snap]))
        assert len(set(out.committees.values())) == 2  # two local committees

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(2, 8))
    def test_two_approximation_randomised(self, seed, n):
        trace = shuffled_path_trace(n, rounds=1500, seed=seed)
        out = klo_counting(trace)
        assert n <= 2 * out.k
        assert out.k < 2 * n


class TestShiftedNetwork:
    def test_offset_indexing(self):
        a = Snapshot.from_edges(2, [])
        b = Snapshot.from_edges(2, [(0, 1)])
        trace = GraphTrace([a, b])
        shifted = ShiftedNetwork(trace, 1)
        assert shifted.snapshot(0).edge_set() == frozenset({(0, 1)})
        assert shifted.n == 2

    def test_negative_offset_rejected(self):
        trace = GraphTrace([Snapshot.from_edges(2, [])])
        with pytest.raises(ValueError):
            ShiftedNetwork(trace, -1)

    def test_adaptive_hook_forwarded(self):
        from repro.graphs.adversary import QuarantineAdversary

        adv = QuarantineAdversary(4, seed=0)
        shifted = ShiftedNetwork(adv, 5)
        assert hasattr(shifted, "adaptive_snapshot")
        snap = shifted.adaptive_snapshot(0, {v: frozenset() for v in range(4)})
        assert snap.n == 4

    def test_plain_base_has_no_adaptive_hook(self):
        trace = GraphTrace([Snapshot.from_edges(2, [])])
        shifted = ShiftedNetwork(trace, 0)
        assert not hasattr(shifted, "adaptive_snapshot")

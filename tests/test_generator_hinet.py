"""Tests for the (T, L)-HiNet scenario generator."""

import pytest

from repro.graphs.ctvg import CTVG
from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.graphs.properties import (
    hierarchy_stable,
    is_hinet,
    is_T_interval_connected,
    max_block_stable_hierarchy,
    realized_hop_bound,
)
from repro.roles import Role


def _gen(**kw):
    seed = kw.pop("seed", 0)
    defaults = dict(n=24, theta=8, num_heads=5, T=6, phases=4, L=2,
                    reaffiliation_p=0.2, head_churn=0, churn_p=0.05)
    defaults.update(kw)
    return generate_hinet(HiNetParams(**defaults), seed=seed)


class TestParams:
    def test_rounds(self):
        p = HiNetParams(n=10, theta=3, num_heads=3, T=5, phases=4)
        assert p.rounds == 20

    def test_head_bounds_validated(self):
        with pytest.raises(ValueError):
            HiNetParams(n=10, theta=12, num_heads=3, T=1, phases=1)
        with pytest.raises(ValueError):
            HiNetParams(n=10, theta=5, num_heads=6, T=1, phases=1)

    def test_L_validated(self):
        with pytest.raises(ValueError):
            HiNetParams(n=10, theta=3, num_heads=3, T=1, phases=1, L=4)

    def test_gateway_budget_validated(self):
        # 5 heads with L=3 need 8 gateways: 13 > 12 nodes
        with pytest.raises(ValueError, match="too small"):
            HiNetParams(n=12, theta=5, num_heads=5, T=1, phases=1, L=3)

    @pytest.mark.parametrize("knob", ["reaffiliation_p", "churn_p"])
    def test_probability_error_names_value(self, knob):
        with pytest.raises(ValueError, match=f"{knob} must be a probability, got 1.5"):
            HiNetParams(n=10, theta=3, num_heads=3, T=1, phases=1, **{knob: 1.5})

    @pytest.mark.parametrize("knob", ["reaffiliation_p", "churn_p"])
    def test_dhop_probability_error_names_value(self, knob):
        from repro.multihop.scenario import DHopParams

        with pytest.raises(ValueError, match=f"{knob} must be a probability, got 1.5"):
            DHopParams(n=10, num_heads=2, T=1, phases=1, **{knob: 1.5})


class TestStructure:
    def test_output_is_hinet(self):
        scen = _gen()
        assert is_hinet(scen.trace, 6, 2)

    def test_hierarchy_valid_every_round(self):
        scen = _gen()
        scen.trace.validate_hierarchy()  # raises on breach

    def test_one_interval_connected(self):
        scen = _gen(churn_p=0.0)
        assert is_T_interval_connected(scen.trace, 1)

    def test_head_count_exact(self):
        scen = _gen(num_heads=5)
        for r in range(scen.trace.horizon):
            assert len(scen.trace.snapshot(r).heads()) == 5

    def test_heads_come_from_pool(self):
        scen = _gen(head_churn=2)
        pool = set(scen.pool)
        ctvg = CTVG(scen.trace, validate=False)
        assert ctvg.distinct_heads() <= pool

    def test_L1_heads_directly_chained(self):
        scen = _gen(L=1, churn_p=0.0)
        snap = scen.trace.snapshot(0)
        heads = sorted(snap.heads())
        for a, b in zip(heads, heads[1:]):
            assert b in snap.adj[a]
        assert realized_hop_bound(scen.trace, 6) <= 1

    def test_L3_uses_two_gateways_per_link(self):
        scen = _gen(n=40, L=3, churn_p=0.0)
        assert is_hinet(scen.trace, 6, 3)
        snap = scen.trace.snapshot(0)
        gws = [v for v in range(snap.n) if snap.role(v) is Role.GATEWAY]
        assert len(gws) == (len(snap.heads()) - 1) * 2

    def test_single_head_star(self):
        scen = _gen(num_heads=1, theta=1)
        snap = scen.trace.snapshot(0)
        (head,) = snap.heads()
        for v in range(snap.n):
            if v != head:
                assert snap.head(v) == head
        assert is_hinet(scen.trace, 6, 2)


class TestDynamics:
    def test_stability_exactly_block_aligned(self):
        scen = _gen(reaffiliation_p=0.9, seed=1)
        T = scen.params.T
        assert hierarchy_stable(scen.trace, T, "blocks")
        # with heavy churn, blocks longer than T must fail
        assert max_block_stable_hierarchy(scen.trace) == T

    def test_zero_churn_is_static_hierarchy(self):
        scen = _gen(reaffiliation_p=0.0, head_churn=0, churn_p=0.0)
        assert max_block_stable_hierarchy(scen.trace) == scen.trace.horizon
        assert scen.reaffiliations == 0

    def test_head_churn_rotates_heads(self):
        scen = _gen(head_churn=2, theta=8, num_heads=4, seed=5)
        ctvg = CTVG(scen.trace, validate=False)
        assert len(ctvg.distinct_heads()) > 4

    def test_reaffiliation_counter_positive_under_churn(self):
        scen = _gen(reaffiliation_p=0.5, seed=3)
        assert scen.reaffiliations > 0
        assert scen.empirical_nr() > 0

    def test_mean_members_accounting(self):
        scen = _gen(churn_p=0.0)
        ctvg = CTVG(scen.trace, validate=False)
        assert scen.mean_members == pytest.approx(ctvg.mean_member_count())

    def test_reproducible(self):
        a = _gen(seed=9)
        b = _gen(seed=9)
        for r in range(a.trace.horizon):
            sa, sb = a.trace.snapshot(r), b.trace.snapshot(r)
            assert sa.edge_set() == sb.edge_set()
            assert sa.head_of == sb.head_of

    def test_t1_regime_is_1_hinet(self):
        scen = _gen(T=1, phases=20, reaffiliation_p=0.4, head_churn=2)
        assert is_hinet(scen.trace, 1, 2)
        assert is_T_interval_connected(scen.trace, 1)

    def test_rotate_gateways_preserves_hinet(self):
        scen = _gen(rotate_gateways=True, phases=6, seed=11)
        assert is_hinet(scen.trace, 6, 2)
        scen.trace.validate_hierarchy()

    def test_rotate_gateways_varies_gateway_set(self):
        scen = _gen(rotate_gateways=True, phases=6, seed=11)
        T = scen.params.T
        gw_sets = set()
        for phase in range(6):
            snap = scen.trace.snapshot(phase * T)
            gws = frozenset(
                v for v in range(snap.n) if snap.role(v) is Role.GATEWAY
            )
            gw_sets.add(gws)
        assert len(gw_sets) > 1  # gateways actually rotate across phases

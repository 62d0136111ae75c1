"""Tests for scenario builders and algorithm runners."""

import pytest

from repro.experiments.runner import execute
from repro.experiments.scenarios import (
    hinet_interval_scenario,
    hinet_one_scenario,
    klo_interval_scenario,
    one_interval_scenario,
)
from repro.graphs.properties import is_hinet, is_T_interval_connected


SMALL = dict(n0=30, theta=8, k=4, alpha=2, L=2, seed=11)


class TestScenarioBuilders:
    def test_hinet_interval_verified(self):
        s = hinet_interval_scenario(**SMALL)
        assert is_hinet(s.trace, int(s.params["T"]), int(s.params["L"]))
        assert s.params["T"] == 4 + 2 * 2
        assert s.n == 30
        assert "nm" in s.params and "nr" in s.params

    def test_hinet_one_verified(self):
        s = hinet_one_scenario(n0=20, theta=6, k=3, L=2, seed=5)
        assert is_hinet(s.trace, 1, 2)
        assert is_T_interval_connected(s.trace, 1)
        assert s.params["rounds"] == 19

    def test_klo_interval_scenario(self):
        s = klo_interval_scenario(n0=20, k=3, alpha=2, L=2, seed=5)
        assert is_T_interval_connected(s.trace, int(s.params["T"]), windows="blocks")

    def test_one_interval_scenario(self):
        s = one_interval_scenario(n0=15, k=2, seed=5)
        assert is_T_interval_connected(s.trace, 1)
        assert s.trace.horizon == 14

    def test_initial_assignment_mode(self):
        s = hinet_interval_scenario(assignment="single", **SMALL)
        assert s.initial == {0: frozenset(range(4))}


class TestRunners:
    @pytest.fixture(scope="class")
    def interval(self):
        return hinet_interval_scenario(**SMALL)

    @pytest.fixture(scope="class")
    def one(self):
        return hinet_one_scenario(n0=24, theta=6, k=3, L=2, seed=13)

    def test_algorithm1_record(self, interval):
        rec = execute("algorithm1", interval)
        assert rec.complete
        assert rec.bound_rounds == 5 * 8  # (ceil(8/2)+1) phases * T=8
        assert rec.tokens_sent > 0
        row = rec.row()
        assert row["algorithm"].startswith("Algorithm 1")

    def test_algorithm1_stable_smaller_bound(self, interval):
        rec = execute("algorithm1-stable", interval)
        assert rec.complete
        assert rec.bound_rounds <= execute("algorithm1", interval).bound_rounds

    def test_klo_interval_on_same_trace(self, interval):
        rec = execute("klo-interval", interval)
        assert rec.complete

    def test_hinet_beats_klo_in_tokens(self, interval):
        ours = execute("algorithm1", interval)
        theirs = execute("klo-interval", interval)
        assert ours.tokens_sent < theirs.tokens_sent

    def test_algorithm2_and_klo_one(self, one):
        a2 = execute("algorithm2", one)
        k1 = execute("klo-one", one)
        assert a2.complete and k1.complete
        assert a2.tokens_sent < k1.tokens_sent

    def test_flood_baselines_run(self, one):
        assert execute("flood-all", one).complete
        rec = execute("kactive", one, A=3)
        assert rec.rounds > 0

    def test_gossip_and_netcoding_run(self, one):
        g = execute("gossip", one, seed=1)
        nc = execute("netcoding", one, seed=1)
        assert g.rounds > 0 and nc.rounds > 0

    def test_missing_param_raises(self):
        s = one_interval_scenario(n0=10, k=2, seed=1)
        with pytest.raises(KeyError, match="theta"):
            execute("algorithm1", s)

"""Regression pins: exact numbers for fixed seeds.

A released library's behaviour should not drift silently.  These tests
pin the *exact* outputs of a handful of seeded runs; any engine,
generator or algorithm change that alters them must be deliberate (and
update the pins with a note in the commit).

The analytic pins are timeless (Table 3 is math); the simulation pins
encode the current deterministic behaviour of the whole stack: rng
streams, generator construction order, engine scheduling.
"""

import hashlib
import json

import pytest

from repro.bench.matrix import regression_gate_scenario
from repro.core.algorithm1 import make_algorithm1_factory
from repro.core.analysis import table3
from repro.experiments.cache import scenario_fingerprint
from repro.experiments.runner import execute, run_algorithm1, run_klo_interval
from repro.experiments.scenarios import (
    hinet_interval_scenario,
    hinet_one_scenario,
    klo_interval_scenario,
)
from repro.experiments.tables import simulated_table3
from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.graphs.generators.interval import t_interval_trace
from repro.graphs.generators.static import clustered_star_arrays
from repro.io import trace_to_dict
from repro.sim.engine import SynchronousEngine
from repro.sim.topology import CSRNetwork


class TestAnalyticPins:
    def test_table3_values_forever(self):
        rows = table3()
        assert [(r["time_rounds"], r["comm_tokens"]) for r in rows] == [
            (180, 8000),
            (126, 4320),
            (99, 79200),
            (99, 50720),
        ]


class TestSimulationPins:
    """Exact measured values for the canonical seeds used in the docs."""

    def test_quickstart_scenario_pin(self):
        scenario = hinet_interval_scenario(
            n0=100, theta=30, k=8, alpha=5, L=2, seed=2013,
        )
        ours = run_algorithm1(scenario)
        theirs = run_klo_interval(scenario)
        assert ours.complete and theirs.complete
        # the paper-scale headline, pinned exactly
        assert theirs.tokens_sent == 8000
        assert 3400 <= ours.tokens_sent <= 3650  # narrow band: churn rng
        assert theirs.tokens_sent / ours.tokens_sent > 2.1

    def test_generator_structure_pin(self):
        scen = generate_hinet(
            HiNetParams(n=20, theta=6, num_heads=4, T=8, phases=4, L=2,
                        reaffiliation_p=0.2, churn_p=0.05),
            seed=42,
        )
        snap = scen.trace.snapshot(0)
        assert sorted(snap.heads()) == sorted(
            generate_hinet(
                HiNetParams(n=20, theta=6, num_heads=4, T=8, phases=4, L=2,
                            reaffiliation_p=0.2, churn_p=0.05),
                seed=42,
            ).trace.snapshot(0).heads()
        )
        # structural constants for this seed
        assert scen.trace.horizon == 32
        assert len(snap.heads()) == 4

    def test_simulated_table3_pin(self):
        rows = simulated_table3(seed=2013, n0=100)
        assert all(r["complete"] for r in rows)
        klo_T, hinet_T, klo_1, hinet_1 = rows
        assert klo_T["measured_comm"] == 8000  # KLO fills its budget exactly
        # shape pins with slack for rng-stream evolution
        assert hinet_T["measured_comm"] < 0.5 * klo_T["measured_comm"]
        assert hinet_1["measured_comm"] < klo_1["measured_comm"]


class TestCommittedBaselinePins:
    """Exact counters of the two committed engine baselines: the bench
    fleet's pinned Algorithm-1 instance and the n=10⁴ clustered star."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_pinned_fleet_instance(self, engine):
        record = execute("algorithm1", regression_gate_scenario(),
                         engine=engine, cache=False)
        assert (record.rounds, record.tokens_sent) == (126, 3498)

    @pytest.mark.parametrize("engine", ["fast", "columnar"])
    def test_clustered_star_n10000(self, engine):
        n, theta, k = 10_000, 300, 16
        net = CSRNetwork(clustered_star_arrays(n, theta))
        initial = {v: frozenset({v % k}) for v in range(n)}
        result = SynchronousEngine(engine=engine).run(
            net, make_algorithm1_factory(T=12, M=6), k, initial, 72
        )
        assert (result.metrics.rounds, result.metrics.tokens_sent) == (72, 31300)


class TestGeneratorTracePins:
    """sha256 of each trace's canonical JSON for fixed (builder, seed)
    pairs: any change to a generator's rng consumption, edge set or
    hierarchy shows up here, however the generator is implemented.
    Each round lists its edges ascending, as :meth:`Snapshot.edges`
    returns them."""

    @staticmethod
    def _digest(scenario) -> str:
        blob = json.dumps(
            trace_to_dict(scenario.trace), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("seed, digest", [
        (3, "d014adb5c7095eaec0869ccd81e678a61e85f897ac04c1b6dbb471e4bcadd769"),
        (47, "9bdb68d37d2a98f22e48198706f00fb1069b7561ca0af4d1060778d4ba2a8a21"),
        (101, "52ab8629766ca87a8ffdcc9e01cc9d49838669e6170ad8cdfda6e73603bdef74"),
    ])
    def test_hinet_interval_trace(self, seed, digest):
        scenario = hinet_interval_scenario(n0=40, theta=12, k=6, alpha=3, L=2,
                                           seed=seed)
        assert self._digest(scenario) == digest

    @pytest.mark.parametrize("seed, digest", [
        (3, "09a6097ff45ab3be19cbe856a03026e7b39b1b5b677df64cea5d1454502481d1"),
        (47, "ebf26fee0058a1d7de2f884a6166ba150f1c50df336893d5104c5e1d66eb24c4"),
        (101, "54ae1003ea5cf16e08b6615bb1226e404deb10836b24b4f03273c7ca3aec66af"),
    ])
    def test_hinet_one_trace(self, seed, digest):
        scenario = hinet_one_scenario(n0=40, theta=12, k=6, L=3, seed=seed)
        assert self._digest(scenario) == digest


class TestGeneratorContentPins:
    """Order-independent pins of the same (builder, seed) pairs: the
    content-addressed ``scenario_fingerprint`` plus the empirical n_r and
    n_m, or sorted per-round edge sets for bare traces.  They hold
    however a generator orders the edges it emits."""

    @staticmethod
    def _edge_digest(trace) -> str:
        blob = json.dumps(
            [sorted(snap.edge_set()) for snap in trace], separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("seed, fingerprint, nr", [
        (3, "57dbfb60095e2931219851b7b7befe9a322e3408a11d2353bb5d3a16d35a1d36",
         0.47058823529411764),
        (47, "dc52f1d05449032adf5c2be07d732b5fa1d3a1099d7889c6e1fe7a06a77f0757",
         0.7058823529411765),
        (101, "c9fbc662cd03c11955b97fccb36c60d86f75d762ea2e8ecdcbd3853962d14356",
         0.5882352941176471),
    ])
    def test_hinet_interval_content(self, seed, fingerprint, nr):
        scenario = hinet_interval_scenario(n0=40, theta=12, k=6, alpha=3, L=2,
                                           seed=seed)
        assert scenario_fingerprint(scenario) == fingerprint
        assert (scenario.params["nr"], scenario.params["nm"]) == (nr, 17.0)

    @pytest.mark.parametrize("seed, fingerprint, nr", [
        (3, "25443763462e988ef7bebc67b83fbcbfd529247e25bdd191f07dcaacf190caa4",
         10.0),
        (47, "956b5846c6d4a2e9cb4f65f116b4d0044cee84c419de0244ba7cf0fe4297c52b",
         10.5),
        (101, "3679171f634743bb17d17a97f874aca8f383ed99c4b6c274ded2eec1d52218ed",
         9.833333333333334),
    ])
    def test_hinet_one_content(self, seed, fingerprint, nr):
        scenario = hinet_one_scenario(n0=40, theta=12, k=6, L=3, seed=seed)
        assert scenario_fingerprint(scenario) == fingerprint
        assert (scenario.params["nr"], scenario.params["nm"]) == (nr, 6.0)

    @pytest.mark.parametrize("seed, fingerprint", [
        (3, "0e43c55bb9dad49e23e384130ed2b53b8b7db9a8c7bdf4da19a86792f6425404"),
        (47, "9cd3f3febc641eee2ddbfda98c7c99028f27281bd3d9d0ddf0fe8094370df069"),
        (101, "9a93ca0ad4a0fea17e1ee04f5a742c314da3653f77c4631565fb71da7ff82929"),
    ])
    def test_klo_interval_content(self, seed, fingerprint):
        scenario = klo_interval_scenario(n0=40, k=6, alpha=3, L=2, seed=seed)
        assert scenario_fingerprint(scenario) == fingerprint

    @pytest.mark.parametrize("seed, spine, digest", [
        (3, "tree", "aefa0c4b3b639cc0a2890266b6d799d0f48e360a0e4549999c515e147e7857ff"),
        (3, "path", "39e65be7c7ad0c7d3a5ef123b1c74b13192d3aa4d3e1382d2b0bc335495bf543"),
        (47, "tree", "44a25645104a15574aee3b2d101528ed7161399c29cd1d8b30426d33406dcb0a"),
        (47, "path", "15d72320dd52c025b745a13b335130ce7061ba691a03c2fc66f14322f3fee2e9"),
        (101, "tree", "6d3486aeb4827b823c071fc98f7f9fc8abbff3d78558f8f09dae300489dee6ea"),
        (101, "path", "386179ff4d6b08edb67c1eadbf169cec72a13d3ae24da40ffb9bebe2f933baf4"),
    ])
    def test_t_interval_trace_content(self, seed, spine, digest):
        trace = t_interval_trace(30, 3, 13, churn_p=0.1, seed=seed, spine=spine)
        assert self._edge_digest(trace) == digest

    def test_t_interval_trace_edge_cases(self):
        one_node = t_interval_trace(1, 2, 3, churn_p=0.5, seed=3)
        assert self._edge_digest(one_node) == (
            "5ae1625b488b3935122d8dd627fe575b388a5aa360378fa4407aad08baaed1e2"
        )
        no_churn = t_interval_trace(12, 2, 5, churn_p=0.0, seed=3, sliding=False)
        assert self._edge_digest(no_churn) == (
            "ebedd007fd872e9b2f7e5760229215a02c70f4a15aa3c6bf8903d0b776473e66"
        )

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
from repro.graphs.generators.markovian import edge_markovian_trace
from repro.graphs.generators.partitioned import partitioned_trace
from repro.graphs.generators.static import clustered_star_arrays
from repro.graphs.generators.worstcase import (
    bottleneck_trace,
    rotating_star_trace,
    shuffled_path_trace,
)
from repro.io import trace_to_dict
from repro.mobility.field import Field
from repro.mobility.unitdisk import unit_disk_trace
from repro.mobility.waypoint import RandomWaypoint
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

    # "columnar": the legacy engine name the end-to-end benchmark's large-n
    # builds on this shape; it goes with that name
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

    @pytest.mark.parametrize("seed, digest", [
        (3, "d8bcbd64fb56df3cc46bc2acc25b8b942a7171e646b07993f256aae856c96d6b"),
        (47, "962f604ab1abaf6810d09a93605754109d92f5e7b3bdb4352f078c8ebdeaa1fb"),
    ])
    def test_edge_markovian_content(self, seed, digest):
        trace = edge_markovian_trace(16, 8, p=0.1, q=0.4, seed=seed,
                                     ensure_connected=True)
        assert self._edge_digest(trace) == digest

    @pytest.mark.parametrize("seed, digest", [
        (3, "43a06974869c9fc435f475f49f94eac8c00141e925a35251d32adfabcd546278"),
        (47, "61184a744e5a9d75a86c8e204037ce0251eb7545c85d63d927cfa17f410753ca"),
    ])
    def test_shuffled_path_content(self, seed, digest):
        assert self._edge_digest(shuffled_path_trace(12, 6, seed=seed)) == digest

    @pytest.mark.parametrize("stride, digest", [
        (1, "b635060864d588e042f94d256512dd613a8900d55dfb03b66effdaf5c194e2cd"),
        (3, "6aaefe15788bae614e1d0bbca9073888727e1fdb304c454aa5d2689f7e594f41"),
    ])
    def test_rotating_star_content(self, stride, digest):
        # deterministic generator: the stride stands in for the seed
        assert self._edge_digest(rotating_star_trace(7, 9, stride=stride)) == digest

    @pytest.mark.parametrize("seed, digest", [
        (3, "3860c4983bec2e74231baf4df50c7dd4846e6a956b46a604df2b4ae9b411fb53"),
        (47, "ae8c3d2565b62f0e0abdcf5b937a4ca714b5c9cbbe1215cdff3de51056d08043"),
    ])
    def test_bottleneck_content(self, seed, digest):
        assert self._edge_digest(bottleneck_trace(9, 6, seed=seed)) == digest

    @pytest.mark.parametrize("seed, digest", [
        (3, "ed75fd738e6fb09f3ff9864454db2f55f9adb766aeaa038ab2d0cadfb5148648"),
        (47, "f6334acc1bb31ef9c916122bb5075ec2036dd710b2d6bcb3a5f96feeb6d381ac"),
    ])
    def test_partitioned_content(self, seed, digest):
        trace = partitioned_trace(18, 12, islands=3, meet_every=4, meet_for=2,
                                  seed=seed)
        assert self._edge_digest(trace) == digest

    @pytest.mark.parametrize("seed, digest", [
        (3, "c6b91aa93c1fec503e6a496c19a108286eda03e9e688ccb34d223089a88b0171"),
        (47, "1bd615f0b2e5a91d09b45f14f3e479fd5c5658d4941036b2a6bcfce6a44bd129"),
    ])
    def test_unit_disk_content(self, seed, digest):
        positions = RandomWaypoint(16, Field(100.0, 100.0), seed=seed).run(8)
        trace = unit_disk_trace(positions, 30.0, ensure_connected=True)
        assert self._edge_digest(trace) == digest


class TestScenarioCatalogPins:
    """``scenario_fingerprint`` and ``name`` of every scenario the CLI, the
    bench fleet and ``validate-model`` build from a spec: the spec → kind
    → builder decision must not move, whichever module makes it.

    The CLI sets run ``repro run`` with the engine call stubbed out, so
    they pin what the parser's defaults and ``--scenario`` build."""

    class _Built(Exception):
        pass

    def _cli_scenario(self, monkeypatch, argv):
        import repro.experiments.runner as runner
        from repro import cli

        def stop(spec, scenario, **kwargs):
            raise self._Built(scenario)

        monkeypatch.setattr(runner, "execute", stop)
        with pytest.raises(self._Built) as built:
            cli.main(argv)
        return built.value.args[0]

    _ONE_24 = ("1-interval worst case n=24 k=3",
               "7fa78f1e77f32a297548f0a04f287be69c1577f0dad6cbc3263f1e8a6d1db9b4")
    _HINET_24 = ("(9,2)-HiNet n=24 theta=7 k=3",
                 "ee947eeb22db4a5c75d15afcec7066c71dd873942c583a113cf6a1380942e108")
    _DHOP_24 = ("d-hop HiNet n=24 d=2 heads=5 k=3",
                "142be201cc50427c01c7be3a2e921fdc6e00f5be84ced546aaf09b4b3caf311f")

    @pytest.mark.parametrize("algorithm, name, fingerprint", [
        ("flood-all", *_ONE_24),
        ("flood-new", *_ONE_24),
        ("gossip", *_ONE_24),
        ("kactive", *_ONE_24),
        ("klo-interval", "9-interval connected n=24 k=3",
         "35378658661f6c77fca5e443fbd3fc5bbea3cb9893fc6eef7ebf9d5f1faff5a6"),
        ("klo-one", *_ONE_24),
        ("netcoding", *_ONE_24),
        ("algorithm1", *_HINET_24),
        ("algorithm1-stable", *_HINET_24),
        ("algorithm2", "(1,2)-HiNet n=24 theta=7 k=3",
         "c2bcc890d6990bee8fee447a5601ee73ff583385a3023246f022750ef81fda43"),
        ("dhop-algorithm1", *_DHOP_24),
        ("dhop-dissemination", *_DHOP_24),
    ])
    def test_auto_kind_per_spec(self, monkeypatch, algorithm, name,
                                fingerprint):
        scenario = self._cli_scenario(monkeypatch, [
            "--seed", "5", "run", algorithm, "--n0", "24", "--theta", "7",
            "--k", "3",
        ])
        assert (scenario.name, scenario_fingerprint(scenario)) == (
            name, fingerprint)

    @pytest.mark.parametrize("kind, name, fingerprint", [
        ("hinet-interval", "(11,2)-HiNet n=50 theta=15 k=5",
         "f95ced6df004faaba2b7bccf4398c4e13a37c7b0e834831b35ca22fadb40cba5"),
        ("hinet-one", "(1,2)-HiNet n=50 theta=15 k=5",
         "829ca8d824e702d18c2ab9766e4ff5675f7f29de725887d47e1796c60953d8b7"),
        ("klo-interval", "11-interval connected n=50 k=5",
         "5201f92a4bb7ba55759f1a8f2a5072e256af2f18ad4a0adf3f1a7c6e9c05b492"),
        ("one-interval", "1-interval worst case n=50 k=5",
         "67b7413279c4824ed87f9068a895985d4e0c7fe4a96518092ff893b695728f25"),
        ("dhop", "d-hop HiNet n=50 d=2 heads=5 k=5",
         "5e48eec23c2daa85043935241eeae1eb0c16c0371a11cc5c44ff39d1c0ad51e8"),
        ("adversarial", "haeupler-kuhn adversary n=50 k=5",
         "c1acb41c51b0bbc567251b2be86a1d74b4f14dbb8c3c5702fd7697d67f6ba657"),
    ])
    def test_explicit_kind_at_cli_defaults(self, monkeypatch, kind, name,
                                           fingerprint):
        scenario = self._cli_scenario(
            monkeypatch, ["run", "flood-all", "--scenario", kind])
        assert (scenario.name, scenario_fingerprint(scenario)) == (
            name, fingerprint)

    #: the 21 distinct scenarios behind the 50 default fleet cases
    _FLEET = {
        "f3ce0729aaea29676b5d6bb885dd60f992420789df5c47af9de4a9bfefee80fb": "(10,2)-HiNet n=48 theta=14 k=4",
        "1042553d91f98251a7d9404cbd867b75b0dd8d3055bedc582c6046fe887ac763": "(10,2)-HiNet n=160 theta=48 k=4",
        "e85dd56f4962ab90f2d8bcbef708c5cd143de90bf3432465bc563cd98df68133": "(10,2)-HiNet n=48 theta=14 k=4 + iid loss p=0.1",
        "d88d63863b10128b83cb8235c22f2181480133c40ce06a97c35c59120d177ace": "(10,2)-HiNet n=160 theta=48 k=4 + iid loss p=0.1",
        "6b31b8083171ea99a154af19f211bbe67c4769ac43030e1dde7c803503a0de6f": "(10,2)-HiNet n=48 theta=14 k=4 + churn rate=0.02",
        "b9f85824031d95c60d0ffc2c8a0a3d0f727ec85d6bbeee7b7bbbc16aad465a4b": "(10,2)-HiNet n=160 theta=48 k=4 + churn rate=0.02",
        "71b25b8575bc72875ce72dea24082235ab75016dccdf7a04837c322d892d69d0": "(1,2)-HiNet n=48 theta=14 k=4",
        "130ea259ead6c4fa7ebd2316dd55aef61427025c73966682124fccb68906f963": "(1,2)-HiNet n=160 theta=48 k=4",
        "8724e14ce502cd2bdbdad849cff6bf59c557207e7310770f73600ff7a3e8bbe9": "(1,2)-HiNet n=48 theta=14 k=4 + iid loss p=0.1",
        "37bc41dca12671747f6694240badf7e8b48c7857f489d33883af180a1a55d611": "(1,2)-HiNet n=160 theta=48 k=4 + iid loss p=0.1",
        "47b914cca42072798b91c62aa17b260b550aa6bfaef97c75db71a4414e32426a": "(1,2)-HiNet n=48 theta=14 k=4 + churn rate=0.02",
        "0b8dadf3b0426b6bfd07c15cc42b1b393fc531705003c6e580b22558411254ba": "(1,2)-HiNet n=160 theta=48 k=4 + churn rate=0.02",
        "77468672fc799b967ff32b08b2c99e550389fea5c8b55c9b6c322d7c34d30694": "1-interval worst case n=48 k=4",
        "031a2c1ff8a30a1545a3cbff1fdd212215ffc25c1e1e3234f9147fc6bb513c1d": "1-interval worst case n=160 k=4",
        "02b0de49bab7d5f4db65cee4f38beb169e5a57f4f36ca9adc7402ceebe0e0dd3": "haeupler-kuhn adversary n=48 k=4",
        "46f993e24553b8510c881cc224ef9f7fbdc6beaf99e5746400e933a9477dacf2": "haeupler-kuhn adversary n=160 k=4",
        "16478e5db14365d1815296bdf87db4023033ffdef3f662febb371c791f5cb833": "1-interval worst case n=48 k=4 + iid loss p=0.1",
        "c2c1fb184c543f2823ba6c26b3b161dd61439bf2479b71601eac996ef5819512": "1-interval worst case n=160 k=4 + iid loss p=0.1",
        "914f8247c37203038ab14f63e8f35af00730071718360a965bec967889c1b286": "1-interval worst case n=48 k=4 + churn rate=0.02",
        "8fdcab6d2181f3b9a25c547d68177ab86f2d2451345eb099fd535564a02f82f6": "1-interval worst case n=160 k=4 + churn rate=0.02",
        "9601fe619b5f89bf0d6c2ca4efcc159b1a8185a8bb1fa99cbcff59acb2c7c841": "(18,2)-HiNet n=100 theta=30 k=8",
    }

    def test_fleet_cases(self):
        from repro.bench.matrix import build_scenario, default_matrix

        cases = default_matrix()
        built = {case.name: build_scenario(case) for case in cases}
        fingerprints = {name: scenario_fingerprint(s)
                        for name, s in built.items()}
        assert len(cases) == 50
        assert {fingerprints[name]: s.name for name, s in built.items()} == \
            self._FLEET
        # which case runs on which of the 21 scenarios
        mapping = "\n".join(f"{case.name} {fingerprints[case.name]}"
                            for case in cases)
        assert hashlib.sha256(mapping.encode()).hexdigest() == (
            "b33651d2af63f9cb2d56add22d78ab9504a6fc6b0971f6534ff0fdbc611ab498"
        )

    _ONE_VM = ("1-interval worst case n=24 k=3",
               "0677b69ebed599de99173dbfb9a1fef52ee03de0257b5e5976f81300485e1406")
    _HINET_VM = ("(9,2)-HiNet n=24 theta=7 k=3",
                 "ca4cc15e451b772bb245d178f7abba32bd8dacbb873ef7185956d2215ee6d72c")
    _DHOP_VM = ("d-hop HiNet n=24 d=2 heads=5 k=3",
                "51f0a2b817c9ad7820b4ceec0b042870f9814670bfe3827d882788eb5116b7bb")

    @pytest.mark.parametrize("algorithm, name, fingerprint", [
        ("flood-all", *_ONE_VM),
        ("flood-new", *_ONE_VM),
        ("gossip", *_ONE_VM),
        ("kactive", *_ONE_VM),
        ("klo-interval", "9-interval connected n=24 k=3",
         "8e1a774da459fa9e8c6723d274e52d8aaf72850332141d4bb266e762746b0baf"),
        ("klo-one", *_ONE_VM),
        ("netcoding", *_ONE_VM),
        ("algorithm1", *_HINET_VM),
        ("algorithm1-stable", *_HINET_VM),
        ("algorithm2", "(1,2)-HiNet n=24 theta=7 k=3",
         "1259d92ec6b62e491c77709c4e0d4c980f4d8076cdea3c2460e854e4fb3cc4fb"),
        ("dhop-algorithm1", *_DHOP_VM),
        ("dhop-dissemination", *_DHOP_VM),
    ])
    def test_validate_model_scenarios(self, algorithm, name, fingerprint):
        from repro.experiments.scenarios import default_kind, scenario_for
        from repro.registry import get_spec

        scenario = scenario_for(default_kind(get_spec(algorithm)), n0=24,
                                k=3, seed=2013)
        assert (scenario.name, scenario_fingerprint(scenario)) == (
            name, fingerprint)

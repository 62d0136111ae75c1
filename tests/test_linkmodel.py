"""The pluggable LinkModel seam (:mod:`repro.sim.linkmodel`).

Covers the counter-based hash discipline (scalar == vector draws), the
``p=0`` identity guarantee, seeded loss/churn determinism with
registry-wide bit-identity across both engine tiers (outputs,
metrics, timelines *and* recordings), the three scenario families, the
``PinpointFault`` model that replaces the old env-var-only hook, spec
round-trips, family validation, and cache-fingerprint sensitivity.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm1 import make_algorithm1_factory
from repro.experiments.cache import scenario_fingerprint
from repro.experiments.runner import execute
from repro.experiments.scenarios import (
    churn_scenario,
    default_kind,
    haeupler_kuhn_scenario,
    hinet_interval_scenario,
    lossy_scenario,
    one_interval_scenario,
    scenario_for,
)
from repro.io import scenario_from_dict, scenario_to_dict
from repro.registry import AlgorithmSpec, all_specs, get_spec
from repro.sim.engine import SynchronousEngine
from repro.sim.linkmodel import (
    BurstyLoss,
    CrashChurn,
    IidLoss,
    LinkChain,
    LinkModel,
    PinpointFault,
    effective_link,
    link_from_spec,
    uniform_one,
    uniforms,
)

ENGINES = ("reference", "fast")


def _flat(seed=3, n0=24, k=3):
    return one_interval_scenario(n0=n0, k=k, seed=seed, verify=False)


def _hinet(seed=3, n0=30, theta=9, k=3):
    return hinet_interval_scenario(
        n0=n0, theta=theta, k=k, alpha=3, L=2, seed=seed, verify=False
    )


def _auto_scenario(spec, seed=5):
    return scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=seed)


def _run(scenario, link, engine, factory=None, max_rounds=40, obs="timeline"):
    factory = factory or make_algorithm1_factory(T=6, M=5)
    eng = SynchronousEngine(engine=engine, obs=obs, link=link)
    return eng.run(scenario.trace, factory, scenario.k, scenario.initial,
                   max_rounds)


# --- counter-hash discipline --------------------------------------------------


class TestHashDiscipline:
    def test_scalar_equals_vector(self):
        seed = 987654321
        for r in (0, 1, 7, 1000):
            a = np.arange(50, dtype=np.int64)
            b = (a * 7 + 3) % 50
            vec = uniforms(seed, r, a, b)
            for i in range(50):
                assert vec[i] == uniform_one(seed, r, int(a[i]), int(b[i]))

    @given(
        seed=st.integers(min_value=0, max_value=2**62),
        r=st.integers(min_value=0, max_value=2**30),
        a=st.integers(min_value=0, max_value=2**20),
        b=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=200, deadline=None)
    def test_scalar_vector_agree_property(self, seed, r, a, b):
        vec = uniforms(seed, r, np.array([a], dtype=np.int64),
                       np.array([b], dtype=np.int64))
        one = uniform_one(seed, r, a, b)
        assert vec[0] == one
        assert 0.0 <= one < 1.0

    def test_order_independent(self):
        """Delivery fates depend on the (round, edge) key only — batching
        or reordering the draws cannot change them."""
        seed, r = 42, 9
        a = np.array([5, 1, 3, 2], dtype=np.int64)
        b = np.array([0, 4, 2, 5], dtype=np.int64)
        perm = np.array([2, 0, 3, 1])
        assert np.array_equal(uniforms(seed, r, a, b)[perm],
                              uniforms(seed, r, a[perm], b[perm]))


# --- p = 0 is exactly the identity link ---------------------------------------


class TestZeroLossIdentity:
    def test_mask_is_none(self):
        m = IidLoss(0.0, seed=77)
        assert m.deliver_mask(3, np.array([1]), np.array([2])) is None
        assert m.delivers(3, 1, 2) is True

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_results_identical_to_no_link(self, engine):
        scenario = _flat()
        base = _run(scenario, None, engine)
        zero = _run(scenario, IidLoss(0.0, seed=123), engine)
        assert zero.outputs == base.outputs
        assert zero.metrics == base.metrics
        assert zero.timeline == base.timeline

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_zero_loss_identity_property(self, seed):
        """Hypothesis: whatever the loss model's seed, p=0.0 is the
        identity LinkModel — bit-identical run on the fast tier."""
        scenario = _flat(seed=2, n0=16, k=2)
        base = _run(scenario, None, "fast", max_rounds=20)
        zero = _run(scenario, IidLoss(0.0, seed=seed), "fast", max_rounds=20)
        assert zero.outputs == base.outputs
        assert zero.metrics == base.metrics


# --- seeded determinism + cross-tier bit-identity -----------------------------


LINKS = [
    ("iid-loss", lambda: IidLoss(0.2, seed=11)),
    ("bursty", lambda: BurstyLoss(0.5, burst_len=4, burst_p=0.4, seed=5)),
    ("churn", lambda: CrashChurn(0.02, seed=9)),
    ("chain", lambda: LinkChain([IidLoss(0.1, seed=3),
                                 CrashChurn(0.01, seed=4)])),
]


class TestSeededDeterminism:
    @pytest.mark.parametrize("name,mk", LINKS, ids=lambda x: x if isinstance(x, str) else "")
    @pytest.mark.parametrize("engine", ENGINES)
    def test_same_seed_bit_identical(self, name, mk, engine):
        scenario = _hinet()
        first = _run(scenario, mk(), engine, obs="record")
        second = _run(scenario, mk(), engine, obs="record")
        assert first.outputs == second.outputs
        assert first.metrics == second.metrics
        assert first.timeline == second.timeline
        assert first.recording == second.recording

    @pytest.mark.parametrize("name,mk", LINKS, ids=lambda x: x if isinstance(x, str) else "")
    def test_cross_engine_bit_identical(self, name, mk):
        scenario = _hinet()
        ref = _run(scenario, mk(), "reference", obs="record")
        fast = _run(scenario, mk(), "fast", obs="record")
        assert fast.outputs == ref.outputs
        assert fast.complete == ref.complete
        assert fast.metrics == ref.metrics
        assert fast.timeline == ref.timeline
        assert fast.recording == ref.recording

    def test_loss_is_actually_lossy(self):
        scenario = _hinet()
        res = _run(scenario, IidLoss(0.3, seed=1), "fast")
        assert res.metrics.lost_deliveries > 0

    def test_churn_actually_crashes(self):
        scenario = _hinet()
        res = _run(scenario, CrashChurn(0.05, seed=2), "fast", max_rounds=30)
        assert res.metrics.crashed_nodes > 0


class TestRegistryWideFamilies:
    """Acceptance criterion: every registered algorithm runs every
    applicable scenario family on both engine tiers bit-identically
    at a fixed seed."""

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    @pytest.mark.parametrize("family", ["lossy", "churn"])
    def test_lossy_churn_identical_across_tiers(self, spec, family):
        base = _auto_scenario(spec)
        if family == "lossy":
            scenario = lossy_scenario(base, 0.15, seed=7)
        else:
            scenario = churn_scenario(base, 0.01, seed=7)
        overrides = {"seed": 9} if spec.seeded else {}
        ref = execute(spec, scenario, engine="reference", **overrides)
        fast = execute(spec, scenario, engine="fast", **overrides)
        assert fast.result.outputs == ref.result.outputs
        assert fast.result.metrics == ref.result.metrics
        assert fast.result.timeline == ref.result.timeline
        assert fast.row() == ref.row()

    @pytest.mark.parametrize(
        "name", ["flood-all", "flood-new", "klo-one", "klo-interval"]
    )
    def test_adversarial_identical_across_tiers(self, name):
        spec = get_spec(name)
        scenario = haeupler_kuhn_scenario(n0=18, k=4, seed=3)
        assert scenario.family == "adversarial"
        assert scenario.params["certified_T"] >= 1
        ref = execute(spec, scenario, engine="reference")
        fast = execute(spec, scenario, engine="fast")
        assert fast.result.outputs == ref.result.outputs
        assert fast.result.metrics == ref.result.metrics
        assert fast.row() == ref.row()


# --- scenario families --------------------------------------------------------


class TestScenarioFamilies:
    def test_benign_by_default(self):
        assert _flat().family == "benign"
        assert _flat().link is None

    def test_wrappers_stamp_family_and_link(self):
        base = _flat()
        lossy = lossy_scenario(base, 0.1, seed=2)
        assert lossy.family == "lossy"
        assert lossy.link == {"kind": "iid-loss", "p": 0.1, "seed": 2}
        bursty = lossy_scenario(base, 0.4, seed=2, burst_len=6)
        assert bursty.link["kind"] == "bursty-loss"
        churn = churn_scenario(base, 0.05, seed=8)
        assert churn.family == "churn"
        assert churn.link["kind"] == "crash-churn"

    def test_adversarial_trace_certified(self):
        scenario = haeupler_kuhn_scenario(n0=16, k=3, seed=1)
        from repro.graphs.properties import max_interval_connectivity

        assert max_interval_connectivity(scenario.trace) >= 1
        assert scenario.params["certified_T"] >= 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_adversarial_certificate_pinned(self, seed):
        """Certified params, and so cache keys, of the adversarial family.
        The Haeupler–Kuhn adversary breaks ties by node id and draws no
        random number, so both seeds build one trace and fingerprint."""
        scenario = scenario_for("adversarial", n0=40, k=6, seed=seed)
        assert scenario.params["certified_T"] == 1
        assert scenario_fingerprint(scenario) == (
            "8acf4d956917392bca15a1e114ecb5dc407ef906946155988b56565738978101"
        )

    def test_profiled_build_certifies_like_the_verified_build(self):
        """``repro profile`` builds unverified and certifies apart; the
        certifier only checks, and the scenario it ends with has the
        verified build's params and fingerprint."""
        from repro import cli
        from repro.experiments.scenarios import SCENARIO_KINDS, _certified
        from repro.obs import Profiler

        argv = ["run", "flood-all", "--scenario", "adversarial", "--n0", "16",
                "--k", "3"]
        args = cli.build_parser().parse_args(argv)
        spec = get_spec("flood-all")
        verified = cli._build_scenario(args, spec)
        profiled = cli._build_scenario(args, spec, profiler=Profiler())
        assert profiled.params == verified.params
        assert profiled.params["certified_T"] >= 1
        assert scenario_fingerprint(profiled) == scenario_fingerprint(verified)

        unverified = scenario_for("adversarial", n0=16, k=3, seed=args.seed,
                                  verify=False)
        assert "certified_T" not in unverified.params
        certify = SCENARIO_KINDS["adversarial"][2]
        assert certify(unverified) == {
            "certified_T": verified.params["certified_T"]}
        assert "certified_T" not in unverified.params  # never written
        assert _certified(unverified, certify).params == verified.params

    def test_family_validation_rejects_unsupported(self):
        spec = get_spec("algorithm1")
        assert "adversarial" not in spec.families
        scenario = haeupler_kuhn_scenario(n0=16, k=3, seed=1)
        with pytest.raises(ValueError, match="adversarial"):
            execute(spec, scenario)

    def test_spec_families_must_include_benign(self):
        good = get_spec("algorithm1")
        with pytest.raises(ValueError, match="benign"):
            AlgorithmSpec(
                name="bad", display_name="bad", family="core",
                guarantee="best-effort", model_class="any",
                required_params=(), plan=good.plan,
                families=("lossy",),
            )
        with pytest.raises(ValueError, match="unknown scenario families"):
            AlgorithmSpec(
                name="bad2", display_name="bad", family="core",
                guarantee="best-effort", model_class="any",
                required_params=(), plan=good.plan,
                families=("benign", "byzantine"),
            )

    def test_list_algorithms_surfaces_families(self):
        row = get_spec("flood-all").row()
        assert row["families"] == "benign,lossy,churn,adversarial"
        row = get_spec("algorithm1").row()
        assert row["families"] == "benign,lossy,churn"


# --- codecs + cache keys ------------------------------------------------------


class TestCodecsAndCacheKeys:
    def test_benign_encoding_unchanged(self):
        """Benign scenarios keep their pre-seam JSON shape, so archived
        scenario files stay valid."""
        d = scenario_to_dict(_flat())
        assert "family" not in d
        assert "link" not in d

    def test_faulted_scenarios_round_trip(self):
        for scenario in (
            lossy_scenario(_flat(), 0.2, seed=4),
            lossy_scenario(_flat(), 0.2, seed=4, burst_len=3),
            churn_scenario(_flat(), 0.03, seed=5),
        ):
            back = scenario_from_dict(scenario_to_dict(scenario))
            assert back.family == scenario.family
            assert back.link == scenario.link
            assert back.params == scenario.params

    def test_fingerprint_sensitive_to_family(self):
        base = _flat()
        lossy = lossy_scenario(base, 0.2, seed=4)
        churn = churn_scenario(base, 0.02, seed=4)
        prints = {scenario_fingerprint(base), scenario_fingerprint(lossy),
                  scenario_fingerprint(churn),
                  scenario_fingerprint(lossy_scenario(base, 0.2, seed=5))}
        assert len(prints) == 4

    def test_link_spec_round_trips(self):
        for _, mk in LINKS:
            model = mk()
            again = link_from_spec(model.spec())
            assert again.spec() == model.spec()
        with pytest.raises(ValueError, match="unknown link model"):
            link_from_spec({"kind": "wormhole"})


# --- PinpointFault + env alias ------------------------------------------------


class TestPinpointFault:
    def test_first_class_fault_diverges_engines(self):
        scenario = _flat()
        fault = PinpointFault(round=2, node=1, token=0)
        ref = _run(scenario, None, "reference")
        faulted = _run(scenario, fault, "fast")
        assert faulted.outputs != ref.outputs or \
            faulted.timeline != ref.timeline

    def test_reference_tier_can_be_excluded(self):
        fault = PinpointFault(round=2, node=1, token=0, tiers=("fast",))
        assert effective_link(fault, "reference") is None
        assert effective_link(fault, "fast") is fault
        eng = SynchronousEngine(engine="fast", link=fault)
        assert eng.link_for("reference") is None
        assert eng.link_for("fast") is fault

    def test_columnar_tier_name_rejected(self):
        with pytest.raises(ValueError, match="'fast'"):
            PinpointFault(round=2, node=1, token=0, tiers=("columnar",))
        spec = {"kind": "pinpoint-fault", "round": 2, "node": 1, "token": 0,
                "tiers": ["fast", "columnar"]}
        with pytest.raises(ValueError, match="'fast'"):
            link_from_spec(spec)

    def test_legacy_engine_name_runs_the_fast_tier(self):
        """``SynchronousEngine(engine="columnar")`` is the fast tier under
        its legacy name: a fault aimed at ``"fast"`` applies to it."""
        scenario = scenario_for("hinet-interval", n0=40, k=4, seed=1)
        plan = get_spec("flood-all").plan(scenario)
        fault = PinpointFault(0, 0, 0, tiers=("fast",))

        def go(name, link):
            engine = SynchronousEngine(engine=name, link=link)
            assert engine.engine_mode == "fast"
            return engine.run(scenario.trace, plan.factory, scenario.k,
                              scenario.initial, plan.max_rounds)

        runs = {name: go(name, fault) for name in ("fast", "columnar")}
        clean = go("fast", None)
        assert runs["fast"].metrics != clean.metrics  # the fault applied
        assert runs["columnar"].metrics == runs["fast"].metrics
        assert runs["columnar"].outputs == runs["fast"].outputs

    def test_identity_base_class_is_inert(self):
        m = LinkModel()
        alive = np.ones(4, dtype=bool)
        assert len(m.crashes(0, alive)) == 0
        assert m.deliver_mask(0, np.array([0]), np.array([1])) is None
        assert m.delivers(0, 0, 1) is True
        assert m.faults(0) == ()

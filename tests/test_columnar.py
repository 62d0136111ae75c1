"""The vectorised round loop: ``engine="fast"`` must be bit-identical to
the reference engine for every registered algorithm under each delivery
the loop selects — CSR segment-OR by default, with monitors and with its
gather split into row blocks; flat scatter under ``latency > 1`` and
``obs="trace"`` — and on one case grid of algorithms and scenario
families, plain, under loss and under latency.  It must fall back to the
reference path for untagged factories and adaptive networks.  Also covers
dropped-unicast accounting, token order across bitset words, the
packed-bitset codecs, the bounded CSR gather, the array-native
:class:`~repro.sim.topology.CSRNetwork`, and the array-native topology
builders."""

import os
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.flooding import make_flood_all_factory, make_flood_new_factory
from repro.baselines.gossip import make_gossip_factory
from repro.baselines.klo import make_klo_interval_factory, make_klo_one_factory
from repro.core.algorithm1 import make_algorithm1_factory
from repro.core.algorithm1_stable import make_algorithm1_stable_factory
from repro.core.algorithm2 import make_algorithm2_factory
from repro.experiments.runner import execute
from repro.experiments.scenarios import (
    default_kind,
    hinet_interval_scenario,
    hinet_one_scenario,
    one_interval_scenario,
    scenario_for,
)
from repro.graphs.generators.static import clustered_star_arrays, ring_lattice_arrays
from repro.io import metrics_to_dict
from repro.obs.monitors import default_monitors
from repro.obs.observer import pack_rows, rows_frozensets, words_for
from repro.obs.recorder import rows_tokens
from repro.obs.stream import BufferSink, TelemetryBus
from repro.registry import all_specs, get_spec
from repro.roles import Role
from repro.sim import fastpath
from repro.sim.engine import SynchronousEngine, run
from repro.sim.linkmodel import CrashChurn, IidLoss, LinkChain, PinpointFault
from repro.sim.topology import CSRNetwork, GraphTrace, Snapshot


def _hinet(seed, n0=50, theta=16, k=5, alpha=4, L=2):
    return hinet_interval_scenario(
        n0=n0, theta=theta, k=k, alpha=alpha, L=L, seed=seed, verify=False
    )


def _hinet1(seed, n0=40, theta=12, k=4):
    return hinet_one_scenario(n0=n0, theta=theta, k=k, seed=seed, verify=False)


def _flat(seed, n0=30, k=4):
    return one_interval_scenario(n0=n0, k=k, seed=seed, verify=False)


def _case_id(case):
    return case[0]


#: Nightly CI widens the seed sweep (REPRO_EQUIV_SEEDS=6); default 2.
SEEDS = list(range(1, 1 + int(os.environ.get("REPRO_EQUIV_SEEDS", "2"))))

# (name, scenario builder, factory builder, max_rounds)
CASES = [
    ("alg1", _hinet, lambda s: make_algorithm1_factory(T=12, M=5), 60),
    ("alg1-strict", _hinet, lambda s: make_algorithm1_factory(T=12, M=5, strict=True), 60),
    ("alg1-stable", _hinet, lambda s: make_algorithm1_stable_factory(T=12, M=5), 60),
    ("alg2", _hinet1, lambda s: make_algorithm2_factory(M=s.n - 1), 45),
    ("klo-interval", _hinet, lambda s: make_klo_interval_factory(T=12, M=5), 60),
    ("klo-one", _flat, lambda s: make_klo_one_factory(M=s.n - 1), 35),
    ("klo-one-clustered", _hinet1, lambda s: make_klo_one_factory(M=s.n - 1), 45),
    ("flood-all", _flat, lambda s: make_flood_all_factory(), 35),
    ("flood-new", _flat, lambda s: make_flood_new_factory(), 35),
    ("flood-new-clustered", _hinet, lambda s: make_flood_new_factory(), 40),
]


def assert_matches_reference(scenario, factory, max_rounds, initial=None,
                             monitors=None, **engine_kwargs):
    """Run the fast and reference engines; compare every observable.

    ``initial`` replaces the scenario's assignment; ``monitors`` builds
    a fresh monitor list for each run.
    """
    if initial is None:
        initial = scenario.initial
    vec, ref = (
        SynchronousEngine(engine=engine, **engine_kwargs).run(
            scenario.trace, factory, scenario.k, initial, max_rounds,
            monitors=monitors() if monitors else None,
        )
        for engine in ("fast", "reference")
    )
    assert vec.n == ref.n and vec.k == ref.k
    assert vec.outputs == ref.outputs
    assert vec.complete == ref.complete
    assert vec.metrics == ref.metrics
    assert vec.timeline == ref.timeline
    assert vec.recording == ref.recording
    assert vec.causal_trace == ref.causal_trace
    assert vec.violations == ref.violations
    assert vec.algorithms is None
    return vec


class TestEquivalence:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, case, seed):
        name, scen_fn, fac_fn, max_rounds = case
        scenario = scen_fn(seed)
        assert_matches_reference(scenario, fac_fn(scenario), max_rounds)

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_bit_identical_under_loss(self, case):
        name, scen_fn, fac_fn, max_rounds = case
        scenario = scen_fn(7)
        assert_matches_reference(
            scenario, fac_fn(scenario), max_rounds, link=IidLoss(0.25, seed=11)
        )

    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_bit_identical_under_latency(self, case):
        name, scen_fn, fac_fn, max_rounds = case
        scenario = scen_fn(5)
        assert_matches_reference(scenario, fac_fn(scenario), max_rounds, latency=2)

    def test_loss_and_latency_together(self):
        assert_matches_reference(
            _hinet(9), make_algorithm1_factory(T=12, M=5), 60,
            latency=3, link=IidLoss(0.15, seed=3),
        )

    def test_module_level_run_accepts_engine(self):
        scenario = _flat(6)
        factory = make_klo_one_factory(M=scenario.n - 1)
        ref = run(scenario.trace, factory, scenario.k, scenario.initial, 35)
        fast = run(
            scenario.trace, factory, scenario.k, scenario.initial, 35,
            engine="fast",
        )
        assert fast.outputs == ref.outputs
        assert fast.metrics == ref.metrics

    def test_unreachable_head_unicast_is_dropped_identically(self):
        # a hand-built trace whose member is affiliated to a non-adjacent
        # head exercises the dropped-unicast accounting on both paths
        snap = Snapshot(
            adj=(frozenset({2}), frozenset(), frozenset({0})),
            roles=(Role.HEAD, Role.MEMBER, Role.MEMBER),
            head_of=(0, 0, 0),
        )
        trace = GraphTrace(snapshots=[snap] * 6)
        factory = make_algorithm2_factory(M=4)
        initial = {0: frozenset({0}), 1: frozenset({1}), 2: frozenset()}
        ref = SynchronousEngine().run(trace, factory, 2, initial, 6)
        fast = SynchronousEngine(engine="fast").run(trace, factory, 2, initial, 6)
        assert ref.metrics.dropped_unicasts > 0
        assert fast.metrics == ref.metrics
        assert fast.outputs == ref.outputs

    def test_stop_when_complete(self):
        """The recording of a run stopped at completion ends where the
        run does, alike on both tiers."""
        scenario = _flat(4)
        fast, ref = (
            SynchronousEngine(engine=engine, obs="record").run(
                scenario.trace, make_flood_all_factory(), scenario.k,
                scenario.initial, 40, stop_when_complete=True,
            )
            for engine in ("fast", "reference")
        )
        assert fast.metrics.rounds == ref.metrics.rounds < 40
        assert fast.metrics == ref.metrics
        assert fast.recording.rounds_recorded == fast.metrics.rounds
        assert fast.recording == ref.recording
        assert fast.outputs == ref.outputs

    def test_wide_token_sets(self):
        # k > 64 exercises multi-word bitset rows through both deliveries:
        # CSR segment-OR at obs="record", flat scatter at obs="trace"
        n, k = 20, 130
        scenario = _flat(8, n0=n, k=4)  # topology only; assignment built here
        initial = {v: frozenset(range(v * 7, min(v * 7 + 7, k))) for v in range(n)}
        factory = make_flood_all_factory()
        for obs in ("record", "trace"):
            fast, ref = (
                SynchronousEngine(engine=engine, obs=obs).run(
                    scenario.trace, factory, k, initial, 25
                )
                for engine in ("fast", "reference")
            )
            assert fast.outputs == ref.outputs
            assert fast.metrics == ref.metrics
            assert fast.recording == ref.recording
            assert fast.causal_trace == ref.causal_trace

    def test_klo_token_order_across_words(self):
        # min/max token selection must honour ids spanning word boundaries
        n, k = 12, 96
        scenario = _flat(2, n0=n, k=4)
        initial = {v: frozenset({v, 95 - v, 63, 64}) for v in range(n)}
        factory = make_klo_interval_factory(T=10, M=12)
        ref = SynchronousEngine().run(scenario.trace, factory, k, initial, 120)
        fast = SynchronousEngine(engine="fast").run(
            scenario.trace, factory, k, initial, 120
        )
        assert fast.outputs == ref.outputs
        assert fast.metrics == ref.metrics


def _auto_scenario(spec):
    return scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=5)


#: Loss plus crash-stop churn: link decisions are pure hashes, so one
#: model instance serves every run.
_FAULTS = LinkChain([IidLoss(0.2, seed=3), CrashChurn(0.02, seed=5)])

#: One engine configuration per delivery the loop selects: (id, engine
#: kwargs, attach monitors).  CSR runs record a RunRecording; scatter is
#: forced by latency > 1 or by causal tracing.
DELIVERIES = [
    ("csr", {"obs": "record"}, False),
    ("csr-monitors", {"obs": "record"}, True),
    ("csr-faults", {"obs": "record", "link": _FAULTS}, False),
    ("scatter-latency2", {"obs": "record", "latency": 2}, False),
    ("scatter-latency2-faults",
     {"obs": "record", "latency": 2, "link": _FAULTS}, False),
    ("scatter-trace", {"obs": "trace"}, False),
]


class TestRegistryWideIdentity:
    @pytest.mark.parametrize("delivery", DELIVERIES, ids=lambda d: d[0])
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_vectorised_matches_reference_per_spec(self, spec, delivery):
        """Every registered algorithm under every delivery: outputs,
        metrics, timeline, recording, causal trace and monitor violations
        agree vectorised⇄reference (specs without a kernel fall back to
        the reference path and trivially agree)."""
        _, engine_kwargs, monitored = delivery
        scenario = _auto_scenario(spec)
        overrides = {"seed": 9} if spec.seeded else {}
        plan = spec.plan(scenario, **overrides)
        results = {}
        for engine in ("reference", "fast"):
            monitors = (
                default_monitors(spec=spec, plan=plan, scenario=scenario)
                if monitored else None
            )
            results[engine] = SynchronousEngine(
                engine=engine, **engine_kwargs
            ).run(
                scenario.trace, plan.factory, scenario.k, scenario.initial,
                plan.max_rounds, stop_when_complete=plan.stop_when_complete,
                monitors=monitors,
            )
        ref, vec = results["reference"], results["fast"]
        if spec.fastpath:
            assert vec.algorithms is None  # the vectorised loop ran
        assert vec.outputs == ref.outputs
        assert vec.complete == ref.complete
        assert vec.metrics == ref.metrics
        assert vec.timeline == ref.timeline
        assert vec.recording == ref.recording
        assert vec.causal_trace == ref.causal_trace
        assert vec.violations == ref.violations
        if monitored:
            assert vec.violations is not None

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_columnar_matches_fast_per_spec(self, spec):
        """``SynchronousEngine(engine="columnar")``, the legacy name the
        end-to-end benchmark still builds, runs the fast tier: a link
        model aimed at ``"fast"`` applies to it, and every registered
        algorithm's metrics and full RunRecording agree with ``"fast"``."""
        scenario = _auto_scenario(spec)
        overrides = {"seed": 9} if spec.seeded else {}
        plan = spec.plan(scenario, **overrides)
        fault = PinpointFault(1, 0, 0, tiers=("fast",))
        fast, col = (
            SynchronousEngine(engine=name, obs="record", link=fault).run(
                scenario.trace, plan.factory, scenario.k, scenario.initial,
                plan.max_rounds, stop_when_complete=plan.stop_when_complete,
            )
            for name in ("fast", "columnar")
        )
        assert col.outputs == fast.outputs
        assert col.metrics == fast.metrics
        rec_fast, rec_col = fast.recording, col.recording
        assert rec_fast is not None and rec_col is not None
        assert rec_col == rec_fast
        assert rec_col.fingerprint() == rec_fast.fingerprint()
        last = rec_col.rounds_recorded - 1
        assert rec_col.state_at(last) == col.outputs


def _naive_segment_or(indptr, indices, payload, edge_keep):
    """Set oracle: each row is the union of the token sets of the payload
    rows its kept edges point at."""
    tokens = rows_tokens(payload)
    unions = []
    for row in range(len(indptr) - 1):
        union = set()
        for e in range(indptr[row], indptr[row + 1]):
            if edge_keep is None or edge_keep[e]:
                union.update(tokens[indices[e]])
        unions.append(union)
    return pack_rows(unions, 64 * payload.shape[1])


#: Gather budgets (uint64 words) that split small runs into many row
#: blocks, down to one edge per block.
TINY_BUDGETS = (1, 3, 64)


@st.composite
def _csr_products(draw):
    """A CSR matrix (degree-0 rows and one heavy row likely), a payload of
    1–3 words per row, and an optional random edge mask."""
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=10))
    degrees = draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
    if draw(st.booleans()):
        degrees[draw(st.integers(0, rows - 1))] = draw(st.integers(4, 24))
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    edges = int(indptr[-1])
    indices = np.array(
        draw(st.lists(st.integers(0, cols - 1), min_size=edges, max_size=edges)),
        dtype=np.int64,
    )
    words = draw(st.integers(1, 3))
    payload = np.array(
        draw(st.lists(st.integers(0, 2**64 - 1), min_size=cols * words,
                      max_size=cols * words)),
        dtype=np.uint64,
    ).reshape(cols, words)
    edge_keep = None
    if draw(st.booleans()):
        edge_keep = np.array(
            draw(st.lists(st.booleans(), min_size=edges, max_size=edges)),
            dtype=bool,
        )
    return indptr, indices, payload, edge_keep


class TestBoundedGather:
    @given(
        product=_csr_products(),
        budget=st.sampled_from((1, 2, 7, 64, fastpath._GATHER_BUDGET)),
    )
    @settings(max_examples=150, deadline=None)
    def test_segment_or_matches_set_oracle(self, product, budget):
        indptr, indices, payload, edge_keep = product
        expected = _naive_segment_or(indptr, indices, payload, edge_keep)
        original = fastpath._GATHER_BUDGET
        fastpath._GATHER_BUDGET = budget
        try:
            got = fastpath.segment_or(indptr, indices, payload, edge_keep)
        finally:
            fastpath._GATHER_BUDGET = original
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("masked", [False, True], ids=["all-kept", "edge-keep"])
    @pytest.mark.parametrize("budget", TINY_BUDGETS + (fastpath._GATHER_BUDGET,))
    @pytest.mark.parametrize("W", [1, 2])
    def test_degree_zero_rows_and_edge_mask(self, W, budget, masked, monkeypatch):
        """Degree-0 rows first, inside and last, so blocks with and
        without them both reduce; one-word rows (moved as 1-D lanes) and
        two-word rows, with and without an edge mask.  A two-word run's
        first column equals the one-word run of that column."""
        rng = np.random.default_rng(W + 2 * budget)
        degrees = [0, 2, 1, 0, 0, 3, 5, 1, 0, 2, 1, 0]
        indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        edges, cols = int(indptr[-1]), 7
        indices = rng.integers(0, cols, size=edges).astype(np.int64)
        payload = rng.integers(0, 2**64 - 1, size=(cols, W), dtype=np.uint64,
                               endpoint=True)
        payload[0] = np.uint64(2**64 - 1)
        edge_keep = rng.random(edges) < 0.6 if masked else None
        expected = _naive_segment_or(indptr, indices, payload, edge_keep)
        monkeypatch.setattr(fastpath, "_GATHER_BUDGET", budget)
        got = fastpath.segment_or(indptr, indices, payload, edge_keep)
        assert got.shape == (len(degrees), W) and got.dtype == np.uint64
        assert np.array_equal(got, expected)
        assert not got[np.array(degrees) == 0].any()
        first = fastpath.segment_or(indptr, indices, payload[:, :1].copy(), edge_keep)
        assert np.array_equal(first, got[:, :1])

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    @pytest.mark.parametrize("link", [None, IidLoss(0.2, seed=3)],
                             ids=["clean", "iid-loss"])
    def test_registry_wide_identity_under_tiny_budget(
        self, spec, link, monkeypatch
    ):
        """Every registered algorithm, vectorised⇄reference, with the CSR
        gather split into blocks of three words."""
        monkeypatch.setattr(fastpath, "_GATHER_BUDGET", 3)
        scenario = _auto_scenario(spec)
        overrides = {"seed": 9} if spec.seeded else {}
        plan = spec.plan(scenario, **overrides)
        ref, vec = (
            SynchronousEngine(engine=engine, obs="record", link=link).run(
                scenario.trace, plan.factory, scenario.k, scenario.initial,
                plan.max_rounds, stop_when_complete=plan.stop_when_complete,
            )
            for engine in ("reference", "fast")
        )
        assert vec.outputs == ref.outputs
        assert vec.metrics == ref.metrics
        assert vec.timeline == ref.timeline
        assert vec.recording == ref.recording


class TestAllSendersLink:
    """When every node broadcasts and every node is alive, every CSR edge
    is a link candidate: the link model's mask over ``indices`` and the
    edge receivers is the broadcast edge mask, with no candidate gathers.
    Crash churn leaves nodes dead and silent, which takes the gathered
    candidates again; both stay bit-identical to the reference."""

    @pytest.mark.parametrize("obs", ["timeline", "record", "trace"])
    @pytest.mark.parametrize("churn", [False, True], ids=["loss", "loss+churn"])
    def test_flood_all_on_a_lattice_cycle(self, churn, obs, monkeypatch):
        n, k = 120, 8
        lattices = [ring_lattice_arrays(n, d) for d in (2, 4, 6)]
        net = CSRNetwork([lattices[r % 3] for r in range(12)])
        link, first_crash = IidLoss(0.2, seed=5), 12
        if churn:
            crash = CrashChurn(0.01, seed=4)
            link = LinkChain([link, crash])
            # no node is dead before the first round with a crash
            first_crash = next(
                r for r in range(12) if len(crash.crashes(r, np.ones(n, dtype=bool)))
            )
            assert 0 < first_crash < 11
        sizes = []
        mask = link.deliver_mask

        def spy(r, senders, receivers):
            sizes.append((r, senders.size))
            return mask(r, senders, receivers)

        monkeypatch.setattr(link, "deliver_mask", spy)
        scenario = SimpleNamespace(trace=net, k=k,
                                   initial={v: frozenset({v % k}) for v in range(n)})
        vec = assert_matches_reference(
            scenario, make_flood_all_factory(), 12, link=link, obs=obs
        )
        assert vec.metrics.lost_deliveries > 0
        assert (vec.metrics.crashed_nodes > 0) == churn
        if obs != "trace":
            # CSR delivery draws one candidate mask per round: over every
            # edge until a node has crashed, over fewer after
            assert [size == lattices[r % 3].indices.size for r, size in sizes] == [
                r < first_crash for r in range(12)
            ]


class TestSharded:
    """The CSR gather's row blocks: under a tiny budget every round is
    reduced serially in many contiguous row shards, bit-identical to the
    reference and to the single-block reduce."""

    def test_serial_shards_identical(self, monkeypatch):
        for budget in TINY_BUDGETS:
            monkeypatch.setattr(fastpath, "_GATHER_BUDGET", budget)
            for seed in SEEDS:
                scenario = _hinet(seed)
                assert_matches_reference(
                    scenario, make_algorithm1_factory(T=12, M=5), 60
                )

    def test_shard_count_does_not_change_results(self, monkeypatch):
        scenario = _flat(6)
        factory = make_flood_new_factory()

        def go():
            return SynchronousEngine(engine="fast").run(
                scenario.trace, factory, scenario.k, scenario.initial, 30
            )

        single = go()
        results = {}
        for budget in TINY_BUDGETS:
            monkeypatch.setattr(fastpath, "_GATHER_BUDGET", budget)
            results[budget] = go()
        for budget, res in results.items():
            assert res.outputs == single.outputs, f"budget={budget}"
            assert res.metrics == single.metrics, f"budget={budget}"
            assert res.timeline == single.timeline, f"budget={budget}"


class TestDispatch:
    def test_factories_carry_fastpath_tags(self):
        assert make_algorithm1_factory(T=3, M=2).fastpath == (
            "algorithm1", {"T": 3, "M": 2, "strict": False},
        )
        assert make_klo_one_factory(M=9).fastpath == ("klo_one", {"M": 9})
        assert make_flood_all_factory().fastpath == ("flood_all", {})

    def test_select_delivery(self):
        assert fastpath.select_delivery(1, "timeline") == "csr"
        for obs in ("off", "record", "profile"):
            assert fastpath.select_delivery(1, obs) == "csr"
        assert fastpath.select_delivery(2, "timeline") == "scatter"
        assert fastpath.select_delivery(5, "record") == "scatter"
        assert fastpath.select_delivery(1, "trace") == "scatter"

    def test_columnar_tier_actually_runs(self):
        scenario = _flat(3)
        result = SynchronousEngine(engine="fast", obs="profile").run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 10
        )
        assert result.algorithms is None
        assert set(result.timeline.profile) == {
            "topology", "send", "deliver", "receive", "bookkeeping"}

    def test_untagged_factory_falls_back(self):
        scenario = _flat(3)
        factory = make_gossip_factory(seed=1)
        assert not hasattr(factory, "fastpath")
        result = SynchronousEngine(engine="fast").run(
            scenario.trace, factory, scenario.k, scenario.initial, 10
        )
        # reference path ran: per-node objects are present
        assert result.algorithms is not None

    def test_adaptive_network_falls_back(self):
        scenario = _flat(3)

        class Adaptive:
            n = scenario.n

            def snapshot(self, r):
                return scenario.trace.snapshot(r)

            def adaptive_snapshot(self, r, knowledge):
                return scenario.trace.snapshot(r)

        result = SynchronousEngine(engine="fast").run(
            Adaptive(), make_flood_all_factory(), scenario.k, scenario.initial, 10
        )
        assert result.algorithms is not None

    def test_fast_path_validates_inputs_like_reference(self):
        scenario = _flat(3)
        factory = make_flood_all_factory()
        eng = SynchronousEngine(engine="fast")
        with pytest.raises(ValueError, match="outside"):
            eng.run(
                scenario.trace, factory, scenario.k,
                {scenario.n + 5: frozenset({0})}, 10,
            )
        with pytest.raises(ValueError, match="max_rounds"):
            eng.run(scenario.trace, factory, scenario.k, scenario.initial, -1)

    def test_loss_runs_natively_and_matches_reference(self):
        # the LinkModel seam masks CSR edges inside the vectorised loop,
        # bit-identical to the reference
        assert_matches_reference(_flat(3), make_flood_all_factory(), 10,
                                   link=IidLoss(0.25, seed=11))

    def test_latency_runs_scatter_delivery(self):
        vec = assert_matches_reference(
            _hinet(3), make_algorithm1_factory(T=12, M=5), 60,
            latency=2, link=IidLoss(0.2, seed=4),
        )
        assert vec.metrics.lost_deliveries > 0

    def test_obs_trace_runs_scatter_delivery(self):
        scenario = _flat(3)
        vec = assert_matches_reference(
            scenario, make_flood_all_factory(), 10, obs="trace"
        )
        ref = SynchronousEngine(obs="trace").run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 10
        )
        assert vec.causal_trace is not None
        assert vec.causal_trace == ref.causal_trace

    def test_monitors_run_csr_delivery(self):
        scenario = _flat(3)
        results = {}
        for engine in ("reference", "fast"):
            results[engine] = SynchronousEngine(engine=engine).run(
                scenario.trace, make_flood_all_factory(), scenario.k,
                scenario.initial, 10, monitors=default_monitors(),
            )
        assert results["fast"].algorithms is None
        assert results["fast"].violations is not None
        assert results["fast"].violations == results["reference"].violations
        assert results["fast"].metrics == results["reference"].metrics

    def test_invalid_engine_mode_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SynchronousEngine(engine="warp")


class TestPackedCodecs:
    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=149),
                          max_size=12),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_round_trip(self, rows):
        k = 150
        bits = pack_rows(rows, k)
        assert bits.shape == (len(rows), words_for(k))
        assert bits.dtype == np.uint64
        assert rows_tokens(bits) == [sorted(r) for r in rows]

    def test_pack_single_tokens_matches_pack_rows(self):
        tokens = np.array([0, 63, 64, 127, -1, 5])
        k = 128
        single = fastpath.pack_single_tokens(tokens, k)
        rows = [frozenset() if t < 0 else frozenset({int(t)})
                for t in tokens]
        assert np.array_equal(single, pack_rows(rows, k))

    def test_pack_single_tokens_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            fastpath.pack_single_tokens(np.array([4]), 4)

    def test_words_for(self):
        assert [words_for(k) for k in (1, 64, 65, 128, 129)] == \
            [1, 1, 2, 2, 3]


def _naive_row_sets(rows):
    """Per-row oracle: test every bit of every row on its own."""
    return [
        frozenset(
            t for t in range(64 * rows.shape[1])
            if (int(row[t >> 6]) >> (t & 63)) & 1
        )
        for row in rows
    ]


def _distinct_objects_equal_distinct_sets(outputs):
    return len({id(s) for s in outputs.values()}) == len(set(outputs.values()))


#: (name, arrays, factory, k, rounds) of runs cut short of completion:
#: many distinct sets remain, and nodes that hold nothing.
PARTIAL_RUNS = [
    ("flood-all-k16", ring_lattice_arrays(60, 2), make_flood_all_factory(), 16, 2),
    ("flood-new-k130", ring_lattice_arrays(60, 2), make_flood_new_factory(), 130, 2),
    ("alg1-k16", clustered_star_arrays(60, 12),
     make_algorithm1_factory(T=4, M=3), 16, 2),
    ("alg1-k130", clustered_star_arrays(60, 12),
     make_algorithm1_factory(T=4, M=3), 130, 2),
]


class TestOutputDecode:
    """The vectorised tier decodes its final bit-matrix once per distinct
    token set; nodes that end with equal sets share one frozenset."""

    # "columnar": the legacy engine name the end-to-end benchmark builds on
    # a CSRNetwork (see SynchronousEngine); it goes with that name
    @pytest.mark.parametrize("tier", ["fast", "columnar"])
    @pytest.mark.parametrize("case", PARTIAL_RUNS, ids=_case_id)
    def test_partial_runs_match_reference(self, case, tier):
        name, arrays, factory, k, rounds = case
        n = arrays.degrees.shape[0]
        # every tenth node starts with one to three tokens spread over all
        # W words; two rounds leave the nodes far from them empty
        initial = {
            v: frozenset(
                sorted({v * 37 % k, (v * 11 + 5) % k, v * k // n})[: v // 10 % 3 + 1]
            )
            for v in range(5, n, 10)
        }
        results = {
            engine: SynchronousEngine(engine=engine).run(
                CSRNetwork(arrays), factory, k, initial, rounds
            )
            for engine in ("reference", tier)
        }
        ref, vec = results["reference"], results[tier]
        assert vec.algorithms is None
        assert not ref.complete
        assert vec.outputs == ref.outputs
        assert vec.metrics == ref.metrics
        assert frozenset() in set(vec.outputs.values())
        assert len(set(vec.outputs.values())) > 3
        assert _distinct_objects_equal_distinct_sets(vec.outputs)

    @pytest.mark.parametrize("W", [1, 3])
    def test_all_distinct_rows_match_naive_oracle(self, W):
        rng = np.random.default_rng(W)
        rows = rng.integers(0, 2**63, size=(300, W), dtype=np.int64).astype(np.uint64)
        rows[::7] <<= np.uint64(1)  # shifted rows can reach bit 63
        rows[5] = 0
        rows[-1] = np.uint64(2**64 - 1)
        assert len({r.tobytes() for r in rows}) == len(rows)
        sets = rows_frozensets(rows)
        assert sets == _naive_row_sets(rows)
        assert rows_tokens(rows) == [sorted(s) for s in sets]
        assert len({id(s) for s in sets}) == len(rows)

    def test_one_word_rows_decode_like_padded_rows(self):
        """``W == 1`` decodes by the ``uint64`` word; the same rows padded
        with a zero word (void keys) decode to equal sets, shared alike."""
        rng = np.random.default_rng(5)
        pool = rng.integers(0, 2**64 - 1, size=40, dtype=np.uint64, endpoint=True)
        pool[:3] = (0, 2**63, 2**64 - 1)
        rows = rng.choice(pool, size=(500, 1))
        padded = np.hstack((rows, np.zeros_like(rows)))
        one, two = rows_frozensets(rows), rows_frozensets(padded)
        assert one == two == _naive_row_sets(rows)
        shared = [[i for i, s in enumerate(one) if s is one[j]] for j in (0, 1, 2)]
        assert shared == [[i for i, s in enumerate(two) if s is two[j]] for j in (0, 1, 2)]
        assert len({id(s) for s in one}) == len({id(s) for s in two}) == len(
            np.unique(rows))

    def test_equal_rows_share_one_frozenset(self):
        rows = np.array([[5], [0], [5], [2**64 - 1], [0], [5]], dtype=np.uint64)
        sets = rows_frozensets(rows)
        assert sets == _naive_row_sets(rows)
        assert sets[0] is sets[2] is sets[5]
        assert sets[1] is sets[4] and sets[1] == frozenset()
        assert rows_frozensets(np.zeros((0, 2), dtype=np.uint64)) == []
        assert rows_tokens(np.zeros((0, 2), dtype=np.uint64)) == []

    def test_complete_run_holds_one_shared_set(self):
        n, k = 200, 16
        res = SynchronousEngine(engine="fast").run(
            CSRNetwork(ring_lattice_arrays(n, 4)), make_flood_new_factory(), k,
            {v: frozenset({v % k}) for v in range(n)}, 40,
        )
        assert res.complete
        assert len({id(s) for s in res.outputs.values()}) == 1


class TestProfileBookkeeping:
    """At ``obs="profile"`` the vectorised tier books its pre-loop pack
    and post-loop decode to the ``bookkeeping`` stage, and a saturated
    tail billed in closed form to ``send``."""

    @staticmethod
    def _slowed(fn):
        def slow(*args, **kwargs):
            time.sleep(0.05)
            return fn(*args, **kwargs)
        return slow

    @pytest.mark.parametrize("stage", ["rows_frozensets", "pack_tokens"])
    def test_pack_and_decode_are_bookkeeping(self, monkeypatch, stage):
        monkeypatch.setattr(fastpath, stage, self._slowed(getattr(fastpath, stage)))
        scenario = _flat(3)
        res = SynchronousEngine(engine="fast", obs="profile").run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 10,
        )
        assert res.algorithms is None
        profile = res.timeline.profile
        assert set(profile) == {
            "topology", "send", "deliver", "receive", "bookkeeping"}
        assert profile["bookkeeping"] >= 0.05

    def test_saturated_tail_is_send(self, monkeypatch):
        kernel = fastpath._FullSetBroadcastKernel
        monkeypatch.setattr(kernel, "tail", self._slowed(kernel.tail))
        scenario = _flat(3)
        res = SynchronousEngine(engine="fast", obs="profile").run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 35,
        )
        assert res.metrics.completion_round < res.metrics.rounds == 35
        assert res.timeline.profile["send"] >= 0.05


#: The cacheable obs levels (``profile`` carries wall times).
CACHEABLE_OBS = ("off", "timeline", "trace", "record")


#: One parameter set per kernel kind, and strict Algorithm 1 besides.
KERNEL_PARAMS = [
    ("algorithm1", {"T": 3, "M": 4, "strict": False}),
    ("algorithm1-strict", {"T": 3, "M": 4, "strict": True}),
    ("algorithm1_stable", {"T": 3, "M": 4, "strict": False}),
    ("algorithm2", {"M": 10}),
    ("klo_interval", {"T": 3, "M": 4}),
    ("klo_one", {"M": 10}),
    ("flood_all", {}),
    ("flood_new", {}),
]


class TestSaturatedRounds:
    """Rounds after a run's coverage reaches n·k skip delivery, absorb,
    the popcount and the state diff when the run has no link model and
    ``latency == 1``; results stay identical to the reference tier."""

    def test_every_kernel_kind_is_contract_checked(self):
        assert {kind.split("-")[0] for kind, _ in KERNEL_PARAMS} == set(fastpath._KERNELS)

    @pytest.mark.parametrize("clustered", [True, False], ids=["clustered", "flat"])
    @pytest.mark.parametrize("case", KERNEL_PARAMS, ids=_case_id)
    def test_absorb_on_saturated_state_only_grows_tr(self, case, clustered):
        """The saturation contract of ``_Kernel.absorb``: on an all-ones
        ``TA`` every kernel array stays as it was, except Algorithm 1's
        ``TR``, which gains ``from_head``."""
        name, params = case
        n, k = 40, 70  # two words, the second partly used
        arrs = (clustered_star_arrays if clustered else ring_lattice_arrays)(n, 4)
        rng = np.random.default_rng(7)
        full = pack_rows([range(k)] * n, k)
        kernel = fastpath._KERNELS[name.split("-")[0]](
            n, k, full.shape[1], full.copy(), **params
        )
        for r in range(2):  # let sends fill TS and friends
            kernel.send(r, arrs)

        def tokens():
            return pack_rows(
                [rng.choice(k, size=rng.integers(0, 6), replace=False)
                 for _ in range(n)], k,
            )

        heard = tokens()
        from_head = None
        if kernel.hears_heads and arrs.roles is not None:
            from_head = tokens()
            from_head[arrs.roles != fastpath._ROLE_MEMBER] = 0
            assert from_head.any()
        before = {
            attr: value.copy() for attr, value in vars(kernel).items()
            if isinstance(value, np.ndarray)
        }
        kernel.absorb(arrs, heard, from_head)
        for attr, old in before.items():
            expected = old
            if attr == "TR" and from_head is not None:
                expected = old | from_head
            assert np.array_equal(getattr(kernel, attr), expected), attr
        assert np.array_equal(kernel.TA, full)

    @pytest.mark.parametrize("obs", CACHEABLE_OBS)
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_runs_that_start_saturated(self, case, obs):
        name, scen_fn, fac_fn, max_rounds = case
        scenario = scen_fn(1)
        every = frozenset(range(scenario.k))
        initial = {v: every for v in range(scenario.n)}
        vec = assert_matches_reference(
            scenario, fac_fn(scenario), max_rounds, initial=initial, obs=obs
        )
        assert vec.metrics.completion_round == 1

    @pytest.mark.parametrize("obs", CACHEABLE_OBS)
    @pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_algorithm1_saturates_mid_phase(self, seed, strict, obs):
        """Members keep unicasting after saturation, steered by the
        ``TR`` their heads' later broadcasts fill."""
        T, M = 12, 5
        scenario = _hinet(seed, n0=40, theta=12, k=5)
        vec = assert_matches_reference(
            scenario, make_algorithm1_factory(T=T, M=M, strict=strict),
            T * M, obs=obs,
        )
        done = vec.metrics.completion_round
        assert done is not None and done % T and done < T * (M - 1)
        assert vec.metrics.per_round_tokens[done:] != [0] * (T * M - done)

    @pytest.mark.parametrize("obs", CACHEABLE_OBS)
    @pytest.mark.parametrize("engine_kwargs", [
        {"latency": 2}, {"link": IidLoss(0.0, seed=1)},
    ], ids=["latency2", "iid-loss-0"])
    @pytest.mark.parametrize("case", [
        ("alg1", lambda: _hinet(1, n0=40, theta=12, k=5),
         lambda s: make_algorithm1_factory(T=12, M=5), 60),
        # full-set broadcasts every round: frames are in flight when the
        # run saturates
        ("klo-one", lambda: _flat(1), lambda s: make_klo_one_factory(M=s.n - 1), 29),
    ], ids=_case_id)
    def test_skip_off_paths(self, case, engine_kwargs, obs):
        """In-flight frames (``latency > 1``) and link models keep the
        full path.  The budget runs past the algorithm's own, so a run
        that never drains its in-flight frames would run too long."""
        _, scen_fn, fac_fn, budget = case
        scenario = scen_fn()
        vec = assert_matches_reference(
            scenario, fac_fn(scenario), budget + 20, obs=obs, **engine_kwargs
        )
        assert vec.complete and vec.metrics.completion_round < budget
        assert budget <= vec.metrics.rounds < budget + 20

    @pytest.mark.parametrize("obs", CACHEABLE_OBS)
    @pytest.mark.parametrize("name", ["algorithm1", "klo-interval", "flood-all"])
    def test_monitored_saturated_runs(self, name, obs):
        spec = get_spec(name)
        scenario = scenario_for(default_kind(spec), n0=40, theta=12, k=6, seed=3)
        plan = spec.plan(scenario)
        vec = assert_matches_reference(
            scenario, plan.factory, plan.max_rounds,
            monitors=lambda: default_monitors(spec=spec, plan=plan, scenario=scenario),
            obs=obs,
        )
        assert vec.violations is not None
        assert vec.metrics.completion_round < vec.metrics.rounds

    @pytest.mark.parametrize("engine_kwargs, skips", [
        ({}, True),
        ({"obs": "trace"}, True),
        ({"obs": "record"}, True),
        ({"latency": 2}, False),
        ({"link": IidLoss(0.0, seed=1)}, False),
    ], ids=["timeline", "trace", "record", "latency2", "iid-loss-0"])
    def test_delivery_stops_after_saturation(self, engine_kwargs, skips, monkeypatch):
        """Deliveries stop after the saturating round, except where
        the rule keeps the full path."""
        calls = Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        for fn in ("segment_or", "_deliveries", "_landing"):
            monkeypatch.setattr(fastpath, fn, counted(getattr(fastpath, fn)))
        scenario = _flat(3)
        res = SynchronousEngine(engine="fast", **engine_kwargs).run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 35,
        )
        done = res.metrics.completion_round
        assert done is not None and done < res.metrics.rounds == 35
        # flood-all broadcasts every round: one delivery per round run
        expected = done if skips else res.metrics.rounds
        if engine_kwargs.get("obs") == "trace" or "latency" in engine_kwargs:
            assert calls == {"_deliveries": expected, "_landing": expected}
        else:
            assert calls == {"segment_or": expected}


# ---------------------------------------------------------------------------
# the saturated tail in closed form
# ---------------------------------------------------------------------------

def _rounds8(edges, heads=None, roles=None):
    return Snapshot.from_edges(8, edges, roles=roles, head_of=heads).arrays()


# two clusters: heads 0 and 4, node 3 a gateway of head 0 next to head 4
_EDGES8 = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (4, 7), (1, 2), (5, 6)]
_ROLES8 = [Role.HEAD, Role.MEMBER, Role.MEMBER, Role.GATEWAY,
           Role.HEAD, Role.MEMBER, Role.MEMBER, Role.MEMBER]
FLAT8 = _rounds8(_EDGES8)
HIER8 = _rounds8(_EDGES8, [0, 0, 0, 0, 4, 4, 4, 4], _ROLES8)
# members 1 and 5 swap heads, each next to its new one
SWAP8 = _rounds8(_EDGES8 + [(1, 4), (5, 0)], [0, 4, 0, 0, 4, 0, 4, 4], _ROLES8)
# member 6 unaffiliated; member 7 headed by 0, which is not its neighbour
LOOSE8 = _rounds8(_EDGES8, [0, 0, 0, 0, 4, 4, None, 0], _ROLES8)
# member 2 headed by member 1
ODD8 = _rounds8(_EDGES8, [0, 0, 1, 0, 4, 4, 4, 4], _ROLES8)

#: (id, rounds, extend, T, k, initial, stop_when_finished); every phase
#: of T rounds holds one hierarchy object unless the id says otherwise.
#: ``initial`` is a node → tokens map, or ``"spread"`` (token v mod k at
#: node v), ``"almost"`` (all, but nodes 1 and 5 lack one) or ``"full"``.
TAIL_CASES = [
    ("mid-phase", [HIER8] * 4 + [SWAP8] * 4 + [LOOSE8] * 4 + [HIER8] * 4,
     "hold", 4, 3, "spread", True),
    ("change-in-phase", [HIER8] * 2 + [SWAP8] * 3 + [LOOSE8] * 3 + [HIER8] * 8,
     "hold", 4, 3, "spread", True),
    ("flat-in-tail", [HIER8] * 4 + [FLAT8] * 4 + [SWAP8] * 4 + [LOOSE8] * 4 + [FLAT8] * 4,
     "hold", 4, 3, "spread", True),
    ("T<k", [HIER8] * 3 + [SWAP8] * 3 + [LOOSE8] * 3, "cycle", 3, 4, "almost", True),
    # saturates at the end of phase 0, leaving member 7, which keeps its
    # head, with a token it has neither sent nor heard from its head
    ("kept-unknown", [LOOSE8] * 8 + [SWAP8] * 8, "hold", 4, 4,
     {0: {1}, 1: {3}, 2: {0}, 3: {2}, 4: {3}, 5: {2}, 6: {0, 1}, 7: {1, 2, 3}}, True),
    ("member-headed", [HIER8] * 4 + [ODD8] * 4 + [HIER8] * 4, "hold", 4, 3, "spread", True),
    # saturates on flat rounds: the tail's first round events list no
    # populations, its later ones do
    ("late-roles", [FLAT8] * 8 + [SWAP8] * 4 + [HIER8] * 4, "hold", 4, 3, "spread", True),
    # token sets two words wide, and a phase as long as k
    ("wide-sets", [HIER8] * 70 + [SWAP8] * 70, "hold", 70, 70, "almost", True),
    ("saturated-at-0", [HIER8] * 4 + [SWAP8] * 4 + [LOOSE8] * 4,
     "hold", 4, 3, "full", True),
    ("hold-unfinished", [HIER8] * 4 + [LOOSE8] * 4, "hold", 4, 3, "spread", False),
    ("cycle-unfinished", [HIER8] * 4 + [SWAP8] * 4 + [FLAT8] * 4,
     "cycle", 4, 3, "spread", False),
]

#: Every vectorised kind, as a factory of (T, budget in rounds).
TAIL_FACTORIES = [
    ("alg1", lambda T, R: make_algorithm1_factory(T=T, M=R // T)),
    ("alg1-strict", lambda T, R: make_algorithm1_factory(T=T, M=R // T, strict=True)),
    ("alg1-stable", lambda T, R: make_algorithm1_stable_factory(T=T, M=R // T)),
    ("alg2", lambda T, R: make_algorithm2_factory(M=R)),
    ("klo-interval", lambda T, R: make_klo_interval_factory(T=T, M=R // T)),
    ("klo-one", lambda T, R: make_klo_one_factory(M=R)),
    ("flood-all", lambda T, R: make_flood_all_factory()),
    ("flood-new", lambda T, R: make_flood_new_factory()),
]

#: Runs that keep calling ``send`` every round: Algorithm 1 finds no
#: closed form with a hierarchy change inside a phase, nor (except the
#: stable variant, whose members fall silent) with T < k or a member
#: headed by a member.  (A member that keeps its head with a token left
#: to upload only puts the tail off to the next phase boundary.)
PER_ROUND = {
    ("change-in-phase", "alg1"), ("change-in-phase", "alg1-strict"),
    ("change-in-phase", "alg1-stable"), ("T<k", "alg1"), ("T<k", "alg1-strict"),
    ("member-headed", "alg1"), ("member-headed", "alg1-strict"),
}


def _tail_run(case, fac_id):
    """``(trace, factory, k, initial, max_rounds, stop_when_finished)``;
    runs go six rounds past the factory's budget of five phases."""
    _, rounds, extend, T, k, initial, finish = case
    everything = frozenset(range(k))
    if isinstance(initial, dict):
        initial = {v: frozenset(tokens) for v, tokens in initial.items()}
    else:
        initial = {
            "spread": {v: frozenset({v % k}) for v in range(8)},
            "almost": {v: everything - {v % k} if v in (1, 5) else everything
                       for v in range(8)},
            "full": {v: everything for v in range(8)},
        }[initial]
    make = dict(TAIL_FACTORIES)[fac_id]
    return GraphTrace(rounds, extend=extend), make(T, 5 * T), k, initial, 5 * T + 6, finish


def _count_sends(monkeypatch) -> Counter:
    """Count ``send`` calls of every kernel kind."""
    calls = Counter()
    for cls in fastpath._Kernel.__subclasses__():
        def counted(self, r, arrs, _send=cls.send):
            calls["send"] += 1
            return _send(self, r, arrs)
        monkeypatch.setattr(cls, "send", counted)
    return calls


class TestSaturatedTail:
    """Once a run saturates, the vectorised tier bills the rest of its
    rounds from the kernel's closed form instead of running them; every
    observable still equals the reference tier's."""

    @pytest.mark.parametrize("obs", CACHEABLE_OBS + ("stream",))
    @pytest.mark.parametrize("fac_id", [f for f, _ in TAIL_FACTORIES])
    @pytest.mark.parametrize("case", TAIL_CASES, ids=_case_id)
    def test_hand_built_traces(self, case, fac_id, obs):
        trace, factory, k, initial, max_rounds, finish = _tail_run(case, fac_id)
        results, events = [], []
        for engine in ("fast", "reference"):
            sink = BufferSink()
            stream = TelemetryBus([sink]) if obs == "stream" else None
            results.append(SynchronousEngine(
                engine=engine, obs="timeline" if stream else obs, stream=stream,
            ).run(trace, factory, k, initial, max_rounds, stop_when_finished=finish))
            events.append(sink.events)
        fast, ref = results
        assert fast.metrics.completion_round is not None
        assert fast.outputs == ref.outputs
        assert fast.metrics == ref.metrics
        assert metrics_to_dict(fast.metrics) == metrics_to_dict(ref.metrics)
        assert fast.timeline == ref.timeline
        assert fast.recording == ref.recording
        assert fast.causal_trace == ref.causal_trace
        if fast.recording is not None:
            assert fast.recording.fingerprint() == ref.recording.fingerprint()
        assert events[0] == events[1]
        if obs == "stream":
            rounds = [e for e in events[0] if e["type"] == "round"]
            assert len(rounds) == fast.metrics.rounds

    @pytest.mark.parametrize("fac_id", [f for f, _ in TAIL_FACTORIES])
    @pytest.mark.parametrize("case", TAIL_CASES, ids=_case_id)
    def test_which_runs_take_the_tail(self, case, fac_id, monkeypatch):
        calls = _count_sends(monkeypatch)
        trace, factory, k, initial, max_rounds, finish = _tail_run(case, fac_id)
        res = SynchronousEngine(engine="fast").run(
            trace, factory, k, initial, max_rounds, stop_when_finished=finish
        )
        if (case[0], fac_id) in PER_ROUND:
            assert calls["send"] == res.metrics.rounds
        else:
            assert calls["send"] < res.metrics.rounds

    def test_kept_member_with_a_token_left_puts_the_tail_off(self, monkeypatch):
        """Plain Algorithm 1 on ``kept-unknown`` saturates in phase 0 while
        member 7, which keeps its head, still has a token to upload: the
        tail is refused at round 4 and taken at the next boundary, so
        ``send`` runs 8 of the 20 rounds, and every observable still
        equals the reference tier's."""
        calls = _count_sends(monkeypatch)
        case = next(c for c in TAIL_CASES if c[0] == "kept-unknown")
        trace, factory, k, initial, max_rounds, finish = _tail_run(case, "alg1")
        fast, ref = (
            SynchronousEngine(engine=engine, obs="record").run(
                trace, factory, k, initial, max_rounds, stop_when_finished=finish
            )
            for engine in ("fast", "reference")
        )
        assert fast.metrics.rounds == 20
        assert calls["send"] == 8
        assert fast.outputs == ref.outputs
        assert fast.metrics == ref.metrics
        assert fast.timeline == ref.timeline
        assert fast.recording == ref.recording

    @pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitored"])
    @pytest.mark.parametrize("name, kind", [
        ("algorithm1", "hinet-interval"), ("klo-interval", "hinet-interval"),
        ("algorithm2", "hinet-one"), ("klo-one", "hinet-one"),
    ])
    def test_send_stops_where_the_tail_starts(self, name, kind, monitor, monkeypatch):
        """On a paper-sweep cell (n0=40, k=6) ``send`` runs up to the first
        round the kernel describes in closed form — the next phase
        boundary for Algorithm 1 and KLO — and never after; a monitored
        run sends every round."""
        calls = _count_sends(monkeypatch)
        scenario = scenario_for(kind, n0=40, k=6, seed=11, verify=False)
        record = execute(name, scenario, cache=False, monitor=monitor)
        done, rounds = record.completion_round, record.rounds
        assert done is not None and done < rounds
        T = int(scenario.params["T"]) if name in ("algorithm1", "klo-interval") else 1
        assert calls["send"] == (rounds if monitor else -(-done // T) * T)

    def test_tail_memory_does_not_grow_with_rounds(self):
        """A saturating n = 2·10⁴ run: billing 3 000 more rounds in closed
        form adds well under 1 MB to the traced peak, where one
        ``(rounds, n)`` bool block would be 60 MB."""
        import tracemalloc

        n, k = 20_000, 8
        net = CSRNetwork(clustered_star_arrays(n, 200))
        TA = fastpath.pack_single_tokens(np.arange(n) % k, k)
        peaks = []
        for rounds in (30, 3030):
            tracemalloc.start()
            try:
                res = fastpath.run_columnar(
                    SynchronousEngine(engine="fast"), net, "algorithm1",
                    {"T": 10, "M": rounds // 10, "strict": False},
                    k, TA.copy(), rounds, materialize_outputs=False,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.metrics.rounds == rounds and res.metrics.completion_round < 30
        assert peaks[1] - peaks[0] < 1 << 20


class TestCSRNetwork:
    def test_snapshot_matches_arrays(self):
        arrs = ring_lattice_arrays(12, 4)
        net = CSRNetwork(arrs)
        assert net.n == 12
        snap = net.snapshot(0)
        assert isinstance(snap, Snapshot)
        for v in range(12):
            start, end = int(arrs.indptr[v]), int(arrs.indptr[v + 1])
            assert snap.adj[v] == frozenset(
                int(u) for u in arrs.indices[start:end]
            )
        assert net.snapshot(0) is snap  # memoized

    def test_clustered_star_is_valid_hierarchy(self):
        net = CSRNetwork(clustered_star_arrays(40, 5))
        snap = net.snapshot(0)
        snap.validate_hierarchy()

    def test_sequence_of_snapshots_bounds_checked(self):
        arrs = [ring_lattice_arrays(10, 2), ring_lattice_arrays(10, 4)]
        net = CSRNetwork(arrs, extend="strict")
        assert net.horizon == 2
        net.snapshot_arrays(1)
        with pytest.raises(IndexError, match="horizon"):
            net.snapshot_arrays(2)

    def test_single_arrays_repeat_forever(self):
        net = CSRNetwork(ring_lattice_arrays(10, 2))
        assert net.snapshot_arrays(0) is net.snapshot_arrays(999)

    def test_columnar_equals_fast_on_csr_network(self):
        """The end-to-end benchmark's large-n shape: a CSRNetwork run on
        an engine built with the legacy name ``"columnar"``."""
        n, k = 64, 8
        net = CSRNetwork(clustered_star_arrays(n, 8))
        initial = {v: frozenset({v % k}) for v in range(n)}
        factory = make_algorithm1_factory(T=6, M=4)
        fast = SynchronousEngine(engine="fast").run(net, factory, k,
                                                    initial, 36)
        col = SynchronousEngine(engine="columnar").run(net, factory, k,
                                                       initial, 36)
        assert col.outputs == fast.outputs
        assert col.metrics == fast.metrics
        assert col.timeline == fast.timeline


class TestArrayBuilders:
    def test_ring_lattice_arrays_validates(self):
        with pytest.raises(ValueError, match="even"):
            ring_lattice_arrays(10, 3)
        with pytest.raises(ValueError, match="n > degree"):
            ring_lattice_arrays(4, 4)

    def test_clustered_star_arrays_validates(self):
        with pytest.raises(ValueError, match="heads"):
            clustered_star_arrays(10, 2)
        with pytest.raises(ValueError, match="n > theta"):
            clustered_star_arrays(5, 5)

    def test_run_columnar_low_level_entry(self):
        """The benchmark entry point: packed initial state, no frozenset
        materialisation, coverage tracked from popcounts."""
        n, k = 200, 16
        net = CSRNetwork(ring_lattice_arrays(n, 4))
        TA0 = fastpath.pack_single_tokens(np.arange(n) % k, k)
        res = fastpath.run_columnar(
            SynchronousEngine(engine="fast"), net, "flood_new", {},
            k, TA0.copy(), 40, materialize_outputs=False,
        )
        assert res.outputs == {}
        assert res.complete
        assert res.metrics.rounds <= 40

        full = fastpath.run_columnar(
            SynchronousEngine(engine="fast"), net, "flood_new", {},
            k, TA0.copy(), 40,
        )
        assert full.complete
        assert all(full.outputs[v] == frozenset(range(k)) for v in range(n))
        assert full.metrics == res.metrics

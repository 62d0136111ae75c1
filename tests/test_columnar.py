"""The vectorised round loop: ``engine="columnar"`` (an alias of
``engine="fast"``) must be bit-identical to the reference engine for
every registered algorithm under each delivery the loop selects — CSR
segment-OR by default, with monitors and with its gather split into row
blocks; flat scatter under ``latency > 1`` and ``obs="trace"``.  Also
covers the packed-bitset codecs, the bounded CSR gather, the array-native
:class:`~repro.sim.topology.CSRNetwork`, and the array-native topology
builders."""

import os

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
from repro.obs.monitors import default_monitors
from repro.registry import all_specs
from repro.sim import columnar
from repro.sim.engine import SynchronousEngine
from repro.sim.linkmodel import CrashChurn, IidLoss, LinkChain
from repro.sim.topology import CSRNetwork, Snapshot


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

# (name, scenario builder, factory builder, max_rounds) — mirrors
# tests/test_fastpath.py so both engine names are pinned on the same grid.
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


def assert_columnar_equivalent(scenario, factory, max_rounds, **engine_kwargs):
    """Run the columnar and reference engines; compare every observable."""
    col = SynchronousEngine(engine="columnar", **engine_kwargs).run(
        scenario.trace, factory, scenario.k, scenario.initial, max_rounds
    )
    ref = SynchronousEngine(**engine_kwargs).run(
        scenario.trace, factory, scenario.k, scenario.initial, max_rounds
    )
    assert col.n == ref.n and col.k == ref.k
    assert col.outputs == ref.outputs
    assert col.complete == ref.complete
    assert col.metrics == ref.metrics
    assert col.timeline == ref.timeline
    assert col.algorithms is None
    return col


class TestEquivalence:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, case, seed):
        name, scen_fn, fac_fn, max_rounds = case
        scenario = scen_fn(seed)
        assert_columnar_equivalent(scenario, fac_fn(scenario), max_rounds)

    def test_stop_when_complete(self):
        scenario = _flat(4)
        factory = make_flood_all_factory()
        fast = SynchronousEngine(engine="fast").run(
            scenario.trace, factory, scenario.k, scenario.initial, 40,
            stop_when_complete=True,
        )
        col = SynchronousEngine(engine="columnar").run(
            scenario.trace, factory, scenario.k, scenario.initial, 40,
            stop_when_complete=True,
        )
        assert col.metrics.rounds == fast.metrics.rounds
        assert col.outputs == fast.outputs

    def test_wide_token_sets(self):
        # k > 64 exercises multi-word bitset rows through the spmm kernel
        n, k = 20, 130
        scenario = _flat(8, n0=n, k=4)  # topology only; assignment built here
        initial = {v: frozenset(range(v * 7, min(v * 7 + 7, k))) for v in range(n)}
        factory = make_flood_all_factory()
        fast = SynchronousEngine(engine="fast").run(
            scenario.trace, factory, k, initial, 25
        )
        col = SynchronousEngine(engine="columnar").run(
            scenario.trace, factory, k, initial, 25
        )
        assert col.outputs == fast.outputs
        assert col.metrics == fast.metrics


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
        """The alias contract: ``engine="columnar"`` and ``"fast"`` run
        the same loop, so every registered algorithm's metrics and full
        RunRecording agree between the two names."""
        scenario = _auto_scenario(spec)
        overrides = {"seed": 9} if spec.seeded else {}
        fast = execute(spec, scenario, engine="fast", obs="record",
                       **overrides)
        col = execute(spec, scenario, engine="columnar", obs="record",
                      **overrides)
        assert col.result.outputs == fast.result.outputs
        assert col.result.metrics == fast.result.metrics
        rec_fast, rec_col = fast.result.recording, col.result.recording
        assert rec_fast is not None and rec_col is not None
        assert rec_col == rec_fast
        assert rec_col.fingerprint() == rec_fast.fingerprint()
        last = rec_col.rounds_recorded - 1
        assert rec_col.state_at(last) == col.result.outputs


def _naive_segment_or(indptr, indices, payload, edge_keep):
    """Set oracle: each row is the union of the token sets of the payload
    rows its kept edges point at."""
    tokens = columnar.unpack_rows(payload)
    unions = []
    for row in range(len(indptr) - 1):
        union = set()
        for e in range(indptr[row], indptr[row + 1]):
            if edge_keep is None or edge_keep[e]:
                union.update(tokens[indices[e]])
        unions.append(union)
    return columnar.pack_rows(unions, 64 * payload.shape[1])


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
        budget=st.sampled_from((1, 2, 7, 64, columnar._GATHER_BUDGET)),
    )
    @settings(max_examples=150, deadline=None)
    def test_segment_or_matches_set_oracle(self, product, budget):
        indptr, indices, payload, edge_keep = product
        expected = _naive_segment_or(indptr, indices, payload, edge_keep)
        original = columnar._GATHER_BUDGET
        columnar._GATHER_BUDGET = budget
        try:
            got = columnar.segment_or(indptr, indices, payload, edge_keep)
        finally:
            columnar._GATHER_BUDGET = original
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    @pytest.mark.parametrize("link", [None, IidLoss(0.2, seed=3)],
                             ids=["clean", "iid-loss"])
    def test_registry_wide_identity_under_tiny_budget(
        self, spec, link, monkeypatch
    ):
        """Every registered algorithm, vectorised⇄reference, with the CSR
        gather split into blocks of three words."""
        monkeypatch.setattr(columnar, "_GATHER_BUDGET", 3)
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


class TestSharded:
    """The CSR gather's row blocks: under a tiny budget every round is
    reduced serially in many contiguous row shards, bit-identical to the
    reference and to the single-block reduce."""

    def test_serial_shards_identical(self, monkeypatch):
        for budget in TINY_BUDGETS:
            monkeypatch.setattr(columnar, "_GATHER_BUDGET", budget)
            for seed in SEEDS:
                scenario = _hinet(seed)
                assert_columnar_equivalent(
                    scenario, make_algorithm1_factory(T=12, M=5), 60
                )

    def test_shard_count_does_not_change_results(self, monkeypatch):
        scenario = _flat(6)
        factory = make_flood_new_factory()

        def go():
            return SynchronousEngine(engine="columnar").run(
                scenario.trace, factory, scenario.k, scenario.initial, 30
            )

        single = go()
        results = {}
        for budget in TINY_BUDGETS:
            monkeypatch.setattr(columnar, "_GATHER_BUDGET", budget)
            results[budget] = go()
        for budget, res in results.items():
            assert res.outputs == single.outputs, f"budget={budget}"
            assert res.metrics == single.metrics, f"budget={budget}"
            assert res.timeline == single.timeline, f"budget={budget}"


class TestDispatch:
    def test_select_delivery(self):
        assert columnar.select_delivery(1, "timeline") == "csr"
        for obs in ("off", "record", "profile"):
            assert columnar.select_delivery(1, obs) == "csr"
        assert columnar.select_delivery(2, "timeline") == "scatter"
        assert columnar.select_delivery(5, "record") == "scatter"
        assert columnar.select_delivery(1, "trace") == "scatter"

    def test_columnar_tier_actually_runs(self):
        scenario = _flat(3)
        result = SynchronousEngine(engine="columnar", obs="profile").run(
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
        result = SynchronousEngine(engine="columnar").run(
            scenario.trace, factory, scenario.k, scenario.initial, 10
        )
        # reference path ran: per-node objects are present
        assert result.algorithms is not None

    def test_loss_runs_natively_and_matches_reference(self):
        # the LinkModel seam masks CSR edges inside the vectorised loop,
        # bit-identical to the reference
        assert_columnar_equivalent(_flat(3), make_flood_all_factory(), 10,
                                   link=IidLoss(0.25, seed=11))

    def test_latency_runs_scatter_delivery(self):
        col = assert_columnar_equivalent(
            _hinet(3), make_algorithm1_factory(T=12, M=5), 60,
            latency=2, link=IidLoss(0.2, seed=4),
        )
        assert col.metrics.lost_deliveries > 0

    def test_obs_trace_runs_scatter_delivery(self):
        scenario = _flat(3)
        col = assert_columnar_equivalent(
            scenario, make_flood_all_factory(), 10, obs="trace"
        )
        ref = SynchronousEngine(obs="trace").run(
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 10
        )
        assert col.causal_trace is not None
        assert col.causal_trace == ref.causal_trace

    def test_monitors_run_csr_delivery(self):
        scenario = _flat(3)
        results = {}
        for engine in ("reference", "columnar"):
            results[engine] = SynchronousEngine(engine=engine).run(
                scenario.trace, make_flood_all_factory(), scenario.k,
                scenario.initial, 10, monitors=default_monitors(),
            )
        assert results["columnar"].algorithms is None
        assert results["columnar"].violations is not None
        assert results["columnar"].violations == results["reference"].violations
        assert results["columnar"].metrics == results["reference"].metrics

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
        bits = columnar.pack_rows(rows, k)
        assert bits.shape == (len(rows), columnar.words_for(k))
        assert bits.dtype == np.uint64
        assert columnar.unpack_rows(bits) == [tuple(sorted(r)) for r in rows]

    def test_pack_single_tokens_matches_pack_rows(self):
        tokens = np.array([0, 63, 64, 127, -1, 5])
        k = 128
        single = columnar.pack_single_tokens(tokens, k)
        rows = [frozenset() if t < 0 else frozenset({int(t)})
                for t in tokens]
        assert np.array_equal(single, columnar.pack_rows(rows, k))

    def test_pack_single_tokens_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            columnar.pack_single_tokens(np.array([4]), 4)

    def test_words_for(self):
        assert [columnar.words_for(k) for k in (1, 64, 65, 128, 129)] == \
            [1, 1, 2, 2, 3]


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
        TA0 = columnar.pack_single_tokens(np.arange(n) % k, k)
        res = columnar.run_columnar(
            SynchronousEngine(engine="columnar"), net, "flood_new", {},
            k, TA0.copy(), 40, materialize_outputs=False,
        )
        assert res.outputs == {}
        assert res.complete
        assert res.metrics.rounds <= 40

        full = columnar.run_columnar(
            SynchronousEngine(engine="columnar"), net, "flood_new", {},
            k, TA0.copy(), 40,
        )
        assert full.complete
        assert all(full.outputs[v] == frozenset(range(k)) for v in range(n))
        assert full.metrics == res.metrics

"""Send accounting across tiers: both engine tiers bill each round's
transmissions into one row of the run's send-count table
(``repro.obs.observer.SendTable.bill``), and ``Metrics`` and
``RunTimeline`` are built from it (``SendTable.settle``,
``SendTable.timeline``).  The tiers must agree field by field —
``by_role`` and the timeline's role and population columns in the same
order — with and without a live stream and monitors, which read the table
row by row, and the live stream must equal every post-hoc export."""

import tracemalloc
from dataclasses import fields

import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.core.algorithm1 import make_algorithm1_factory
from repro.core.algorithm2 import make_algorithm2_factory
from repro.experiments.cache import ResultCache
from repro.experiments.runner import execute
from repro.experiments.scenarios import (
    Scenario,
    default_kind,
    one_interval_scenario,
    scenario_for,
)
from repro.obs import BufferSink, TelemetryBus, read_events, write_events
from repro.obs.monitors import CoverageMonotonicityMonitor, EnvelopeMonitor, Monitor
from repro.registry import all_specs
from repro.roles import Role
from repro.sim.engine import SynchronousEngine
from repro.sim.linkmodel import CrashChurn, IidLoss
from repro.sim.metrics import Metrics
from repro.sim.topology import GraphTrace, Snapshot

VECTORISED = [spec for spec in all_specs() if spec.fastpath]

OBS = ("off", "timeline", "trace", "record")

#: Engine options per link configuration: loss and crash-stop churn go
#: through the link model (at this rate every node of some runs crashes);
#: latency 2 forces the flat-scatter delivery.
LINKS = {
    "none": {},
    "iid": {"link": IidLoss(0.2, seed=3)},
    "churn": {"link": CrashChurn(0.05, seed=5)},
    "latency2": {"latency": 2},
}


class _Totals(Monitor):
    """Records each round view's running send totals."""

    name = "totals"

    def __init__(self) -> None:
        super().__init__()
        self.seen = []

    def observe(self, view) -> None:
        self.seen.append((view.round_index, view.messages_sent, view.tokens_sent))


def _run(engine, network, factory, k, initial, max_rounds, *, obs, live,
         stop_when_complete=False, **engine_kwargs):
    """One run; with ``live``, a stream (when ``obs`` keeps a timeline)
    and monitors whose verdicts read the running send totals."""
    sink = BufferSink()
    stream = TelemetryBus([sink]) if live and obs != "off" else None
    monitors = None
    if live:
        monitors = [
            _Totals(),
            CoverageMonotonicityMonitor(),
            EnvelopeMonitor(rounds_bound=4, messages_bound=20, tokens_bound=30),
        ]
    result = SynchronousEngine(
        engine=engine, obs=obs, stream=stream, **engine_kwargs
    ).run(network, factory, k, initial, max_rounds,
          stop_when_complete=stop_when_complete, monitors=monitors)
    return result, sink.events, monitors[0].seen if live else None


def _assert_same_accounting(runs):
    (ref, ref_events, ref_seen), (vec, vec_events, vec_seen) = runs
    assert vec.algorithms is None  # the vectorised loop ran
    for f in fields(Metrics):
        assert getattr(vec.metrics, f.name) == getattr(ref.metrics, f.name), f.name
    assert list(vec.metrics.by_role) == list(ref.metrics.by_role)
    assert vec.timeline == ref.timeline
    if ref.timeline is not None:
        for family in ("role_messages", "role_tokens", "populations"):
            assert list(getattr(vec.timeline, family)) == \
                list(getattr(ref.timeline, family)), family
        tl, metrics = vec.timeline, vec.metrics
        assert tl.tokens == metrics.per_round_tokens
        assert {role: sum(c) for role, c in tl.role_messages.items()} == {
            role: cost.messages for role, cost in metrics.by_role.items()
        }
        assert list(tl.role_tokens) == list(metrics.by_role)
    assert vec_events == ref_events
    assert vec.violations == ref.violations
    assert vec_seen == ref_seen
    if vec_seen is not None:
        tokens = vec.metrics.per_round_tokens
        assert [t for _, _, t in vec_seen] == [
            sum(tokens[:r + 1]) for r in range(len(tokens))
        ]


class TestRegistryWideAccounting:
    @pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
    @pytest.mark.parametrize("link", list(LINKS))
    @pytest.mark.parametrize("obs", OBS)
    @pytest.mark.parametrize("spec", VECTORISED, ids=lambda s: s.name)
    def test_reference_and_vectorised_account_alike(self, spec, obs, link, live):
        scenario = scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=5)
        plan = spec.plan(scenario)
        _assert_same_accounting([
            _run(engine, scenario.trace, plan.factory, scenario.k,
                 scenario.initial, plan.max_rounds, obs=obs, live=live,
                 stop_when_complete=plan.stop_when_complete, **LINKS[link])
            for engine in ("reference", "fast")
        ])

    @pytest.mark.parametrize("obs", ["off", "timeline"])
    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("spec", VECTORISED, ids=lambda s: s.name)
    def test_role_order_agrees_at_more_seeds(self, spec, obs, seed):
        """At seeds 2 and 3 a gateway is the lowest-id sender of round 0
        in the clustered scenarios, so a ledger that ordered roles by the
        first node to send would put it before the heads."""
        scenario = scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=seed)
        plan = spec.plan(scenario)
        runs = [
            _run(engine, scenario.trace, plan.factory, scenario.k,
                 scenario.initial, plan.max_rounds, obs=obs, live=False,
                 stop_when_complete=plan.stop_when_complete)
            for engine in ("reference", "fast")
        ]
        _assert_same_accounting(runs)
        for result, _, _ in runs:
            if result.timeline is not None:
                assert list(result.metrics.by_role) == \
                    list(result.timeline.role_messages)


def _late_gateway_trace():
    """Rounds 0–1 are flat; rounds 2–3 have heads 0 and 1 and members
    only; from round 4 node 2 is a gateway and member 5 is affiliated to
    head 0, which it is not adjacent to, so its unicasts are dropped.  Heads have the lowest
    ids, so the reference engine meets roles in role-code order."""
    H, G, M = Role.HEAD, Role.GATEWAY, Role.MEMBER
    path = Snapshot.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    no_gateway = Snapshot.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
        roles=[H, H, M, M, M, M], head_of=[0, 1, 0, 0, 1, 1],
    )
    gateway = Snapshot.from_edges(
        6, [(0, 2), (1, 2), (0, 3), (1, 4), (4, 5)],
        roles=[H, H, G, M, M, M], head_of=[0, 1, 0, 0, 1, 0],
    )
    return GraphTrace([path, path, no_gateway, no_gateway, gateway])


_LATE_INITIAL = {5: frozenset({0}), 3: frozenset({1}), 0: frozenset({2})}

LATE_FACTORIES = {
    "flood-all": make_flood_all_factory,
    "algorithm1": lambda: make_algorithm1_factory(T=2, M=4),
    "algorithm2": lambda: make_algorithm2_factory(M=8),
}


class TestLateRoles:
    @pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
    @pytest.mark.parametrize("link", ["none", "iid", "latency2"])
    @pytest.mark.parametrize("obs", OBS)
    @pytest.mark.parametrize("name", list(LATE_FACTORIES))
    def test_flat_rounds_then_late_gateways(self, name, obs, link, live):
        _assert_same_accounting([
            _run(engine, _late_gateway_trace(), LATE_FACTORIES[name](), 3,
                 _LATE_INITIAL, 8, obs=obs, live=live, **LINKS[link])
            for engine in ("reference", "fast")
        ])

    def test_unicasts_to_an_unreachable_head_are_dropped(self):
        for engine in ("reference", "fast"):
            result, _, _ = _run(engine, _late_gateway_trace(),
                                make_algorithm2_factory(M=8), 3, _LATE_INITIAL,
                                8, obs="off", live=False)
            assert result.metrics.dropped_unicasts > 0

    def test_column_order_and_zero_backfill(self):
        result, _, _ = _run("fast", _late_gateway_trace(), make_flood_all_factory(),
                            3, _LATE_INITIAL, 8, obs="timeline", live=False)
        tl = result.timeline
        # first round each role sent, then role code: flat (round 0), head
        # and member (round 2), gateway (round 4)
        assert list(tl.role_messages) == ["flat", "head", "member", "gateway"]
        assert list(result.metrics.by_role) == list(tl.role_messages)
        assert tl.role_messages["gateway"][:4] == [0, 0, 0, 0]
        assert tl.role_messages["gateway"][4] == 1
        assert tl.role_messages["flat"][2:] == [0] * 6
        # all three populations from the first round with roles
        assert list(tl.populations) == ["head", "gateway", "member"]
        assert tl.populations["head"] == [0, 0, 2, 2, 2, 2, 2, 2]
        assert tl.populations["gateway"] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert tl.populations["member"] == [0, 0, 4, 4, 3, 3, 3, 3]

    @pytest.mark.parametrize("name", ["flood-all", "algorithm2"])
    def test_live_and_post_hoc_round_events_agree(self, tmp_path, name):
        """The ``round`` and ``summary`` events of the live stream equal
        those of ``write_events``, ``TelemetryBus.replay`` and a cache-hit
        replay, on both tiers, for a run that starts flat and clusters
        later (populations appear from round 2 in every one of them)."""
        scenario = Scenario(name="late-gateway", trace=_late_gateway_trace(),
                            k=3, initial=_LATE_INITIAL, params={})
        cache = ResultCache(tmp_path / "cache")

        def streamed(engine):
            sink = BufferSink()
            record = execute(name, scenario, engine=engine, cache=cache,
                             stream=TelemetryBus([sink]))
            return record, [e for e in sink.events
                            if e["type"] in ("round", "summary")]

        expected = None
        for engine in ("reference", "fast"):
            record, live = streamed(engine)  # a miss: the engine streams
            _, hit = streamed(engine)  # a hit: the cache replays
            result = record.result
            path = tmp_path / f"{engine}.jsonl"
            write_events(path, result.timeline,
                         summary=result.metrics.summary())
            written = [e for e in read_events(path)
                       if e["type"] in ("round", "summary")]
            sink = BufferSink()
            TelemetryBus([sink]).replay(result.timeline)
            assert hit == written == live
            assert sink.events == live[:-1]
            assert ["populations" in e for e in live[:-1]] == \
                [False, False] + [True] * (len(live) - 3)
            expected = expected or live
            assert live == expected

    def test_streamed_populations_start_at_the_first_round_with_roles(self):
        _, events, _ = _run("fast", _late_gateway_trace(), make_flood_all_factory(),
                            3, _LATE_INITIAL, 8, obs="timeline", live=True)
        rounds = [e for e in events if e["type"] == "round"]
        assert [("populations" in e) for e in rounds] == [False, False] + [True] * 6
        assert rounds[0]["by_role"] == {"flat": {"messages": 3, "tokens": 3}}


class TestRolesThatEnd:
    def test_rounds_without_roles_after_roles(self):
        """A flat round after clustered ones: zero populations, live and
        at the end of the run, and its sends billed to ``flat``."""
        snaps = _late_gateway_trace().snapshots
        trace = GraphTrace(snaps + [snaps[0]])
        runs = [
            _run(engine, trace, make_flood_all_factory(), 3, _LATE_INITIAL, 7,
                 obs="timeline", live=True)
            for engine in ("reference", "fast")
        ]
        _assert_same_accounting(runs)
        result, events, _ = runs[1]
        last = [e for e in events if e["type"] == "round"][-1]
        assert last["populations"] == {"gateway": 0, "head": 0, "member": 0}
        assert set(last["by_role"]) == {"flat"}
        assert result.timeline.populations["head"] == [0, 0, 2, 2, 2, 0, 0]


class TestTableMemory:
    def test_table_grows_with_executed_rounds_not_the_budget(self):
        """A budget of 10⁶ rounds on a run that completes in a handful
        allocates a handful of rows, not 10⁶."""
        scenario = one_interval_scenario(n0=12, k=3, seed=1, verify=False)
        engine = SynchronousEngine(engine="fast")
        run = lambda: engine.run(  # noqa: E731
            scenario.trace, make_flood_all_factory(), scenario.k,
            scenario.initial, 10**6, stop_when_complete=True,
        )
        run()  # warm imports and caches outside the measurement
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.complete and result.metrics.rounds < 50
        assert peak < 256 * 1024, peak

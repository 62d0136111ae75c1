"""Runtime invariant monitors (repro.obs.monitors): unit semantics on
synthetic rounds, default-monitor assembly, healthy runs staying clean,
adversarial (T, L)-breaking scenarios triggering stability diagnostics,
and fastpath⇄reference equivalence of the violation streams."""

import os
from dataclasses import replace

import pytest

from repro import cli
from repro.experiments.runner import execute
from repro.experiments.scenarios import (
    Scenario,
    default_kind,
    hinet_interval_scenario,
    one_interval_scenario,
    scenario_for,
)
from repro.graphs.trace import GraphTrace
from repro.obs import (
    BudgetMonitor,
    CoverageMonotonicityMonitor,
    EnvelopeMonitor,
    HeadProgressMonitor,
    RoundView,
    StabilityMonitor,
    Violation,
    default_monitors,
)
from repro.registry import all_specs, get_spec
from repro.roles import Role
from repro.sim.topology import Snapshot


def _clustered_snap(n=3, edges=((0, 1), (1, 2), (0, 2)), head=0):
    roles = tuple(Role.HEAD if v == head else Role.MEMBER for v in range(n))
    return Snapshot.from_edges(n, edges, roles=roles,
                               head_of=tuple(head for _ in range(n)))


def _view(r, snap, coverage=0, per_node=(), n=3, k=2, nodes_complete=0):
    return RoundView(round_index=r, snap=snap, coverage=coverage,
                     nodes_complete=nodes_complete,
                     per_node=list(per_node) or [0] * n, n=n, k=k)


class TestViolation:
    def test_str_forms(self):
        v = Violation(monitor="m", round=3, message="oops")
        assert str(v) == "[m] round 3: oops"
        assert "end of run" in str(Violation(monitor="m", round=-1, message="x"))


class TestCoverageMonotonicity:
    def test_clean_on_nondecreasing(self):
        mon = CoverageMonotonicityMonitor()
        snap = _clustered_snap()
        for r, cov in enumerate((3, 3, 5)):
            mon.observe(_view(r, snap, coverage=cov))
        assert mon.violations == []

    def test_fires_on_drop(self):
        mon = CoverageMonotonicityMonitor()
        snap = _clustered_snap()
        mon.observe(_view(0, snap, coverage=5))
        mon.observe(_view(1, snap, coverage=4))
        (v,) = mon.violations
        assert v.round == 1 and v.context["previous"] == 5


class TestHeadProgress:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            HeadProgressMonitor(0, 1)

    def test_fires_when_stable_head_stalls(self):
        mon = HeadProgressMonitor(T=2, alpha=1)
        snap = _clustered_snap()
        mon.observe(_view(0, snap, per_node=[1, 1, 1], k=2))
        mon.observe(_view(1, snap, per_node=[1, 2, 1], k=2))  # head 0 stalled
        (v,) = mon.violations
        assert v.context["head"] == 0 and v.context["phase"] == 0

    def test_clean_when_head_progresses(self):
        mon = HeadProgressMonitor(T=2, alpha=1)
        snap = _clustered_snap()
        mon.observe(_view(0, snap, per_node=[1, 1, 1], k=2))
        mon.observe(_view(1, snap, per_node=[2, 1, 1], k=2))
        assert mon.violations == []

    def test_complete_head_is_exempt(self):
        # head already holds all k tokens: required gain is min(α, k−k) = 0
        mon = HeadProgressMonitor(T=2, alpha=1)
        snap = _clustered_snap()
        mon.observe(_view(0, snap, per_node=[2, 1, 1], k=2))
        mon.observe(_view(1, snap, per_node=[2, 1, 1], k=2))
        assert mon.violations == []

    def test_unstable_head_is_exempt(self):
        # the head role moves mid-phase: no node is phase-stable
        mon = HeadProgressMonitor(T=2, alpha=1)
        mon.observe(_view(0, _clustered_snap(head=0), per_node=[1, 1, 1], k=2))
        mon.observe(_view(1, _clustered_snap(head=1), per_node=[1, 1, 1], k=2))
        assert mon.violations == []


class TestBudget:
    def test_clean_inside_budget(self):
        mon = BudgetMonitor(10)
        mon.finish(rounds=7, complete=True)
        assert mon.violations == []

    def test_fires_when_over_budget(self):
        mon = BudgetMonitor(10)
        mon.finish(rounds=12, complete=True)
        assert mon.violations and mon.violations[0].round == -1

    def test_fires_when_incomplete_at_budget(self):
        mon = BudgetMonitor(10)
        mon.finish(rounds=10, complete=False)
        (v,) = mon.violations
        assert "incomplete" in v.message


class TestStability:
    def test_fires_on_mid_block_hierarchy_change(self):
        mon = StabilityMonitor(T=3, L=1)
        mon.observe(_view(0, _clustered_snap(head=0)))
        mon.observe(_view(1, _clustered_snap(head=1)))  # roles changed
        mon.observe(_view(2, _clustered_snap(head=1)))
        assert any("hierarchy changed" in v.message for v in mon.violations)
        # one diagnostic per block, not one per offending round
        assert sum("hierarchy" in v.message for v in mon.violations) == 1

    def test_fires_on_member_head_nonadjacency(self):
        snap = _clustered_snap(edges=((0, 1),))  # node 2 cut off from head 0
        mon = StabilityMonitor(T=1, L=1)
        mon.observe(_view(0, snap))
        assert any("not adjacent" in v.message for v in mon.violations)

    def test_adjacency_check_gated_for_dhop(self):
        snap = _clustered_snap(edges=((0, 1),))
        mon = StabilityMonitor(T=1, L=1, member_adjacency=False)
        mon.observe(_view(0, snap))
        assert not any("not adjacent" in v.message for v in mon.violations)

    def test_fires_on_disconnected_backbone(self):
        # two isolated heads: no stable connected head backbone exists
        snap = Snapshot.from_edges(2, (), roles=(Role.HEAD, Role.HEAD),
                                   head_of=(0, 1))
        mon = StabilityMonitor(T=1, L=1)
        mon.observe(_view(0, snap, n=2))
        assert any("Definition 5" in v.message for v in mon.violations)


class TestEnvelopeMonitor:
    def _view_with_counters(self, r, snap, tokens, messages):
        return RoundView(round_index=r, snap=snap, coverage=0,
                         nodes_complete=0, per_node=[0] * 3, n=3, k=2,
                         tokens_sent=tokens, messages_sent=messages)

    def test_rounds_bound_validated(self):
        with pytest.raises(ValueError):
            EnvelopeMonitor(rounds_bound=0)

    def test_idle_when_engine_omits_counters(self):
        mon = EnvelopeMonitor(rounds_bound=50, messages_bound=1,
                              tokens_bound=1)
        mon.observe(_view(0, _clustered_snap()))  # counters default to None
        assert mon.violations == []

    def test_each_metric_flagged_once_at_first_excursion(self):
        snap = _clustered_snap()
        mon = EnvelopeMonitor(rounds_bound=2, messages_bound=10,
                              tokens_bound=4)
        mon.observe(self._view_with_counters(0, snap, tokens=3, messages=3))
        assert mon.violations == []
        mon.observe(self._view_with_counters(2, snap, tokens=9, messages=3))
        assert [v.context["metric"] for v in mon.violations] == [
            "rounds", "tokens"]
        assert mon.violations[1].context["bound"] == 4
        # later rounds over the same bounds stay silent: one flag per metric
        mon.observe(self._view_with_counters(3, snap, tokens=11, messages=3))
        assert len(mon.violations) == 2

    def test_finish_flags_guaranteed_incompleteness(self):
        mon = EnvelopeMonitor(rounds_bound=4, guaranteed=True)
        mon.finish(rounds=4, complete=False)
        assert [v.context["metric"] for v in mon.violations] == ["completion"]
        clean = EnvelopeMonitor(rounds_bound=4, guaranteed=True)
        clean.finish(rounds=3, complete=True)
        assert clean.violations == []

    def test_doctored_bounds_engine_identical_violations(self):
        """Acceptance: the same artificially tight envelope produces
        identical non-empty violation streams on both engines."""
        from repro.sim.engine import SynchronousEngine

        scenario = _healthy_scenario()
        spec = get_spec("algorithm1")
        plan = spec.plan(scenario)
        streams = {}
        for engine in ("reference", "fast"):
            mon = EnvelopeMonitor(rounds_bound=3, messages_bound=40,
                                  tokens_bound=40)
            result = SynchronousEngine(engine=engine).run(
                scenario.trace, plan.factory, k=scenario.k,
                initial=scenario.initial, max_rounds=plan.max_rounds,
                monitors=[mon])
            assert result.violations is not None
            streams[engine] = result.violations
        assert streams["reference"], "tight bounds produced no violations"
        assert {v.context["metric"] for v in streams["reference"]} == {
            "rounds", "messages", "tokens"}
        assert streams["fast"] == streams["reference"]


class TestDefaultMonitors:
    def _plan(self, name, scenario):
        spec = get_spec(name)
        return spec, spec.plan(scenario)

    def test_algorithm1_gets_all_five(self):
        scenario = hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2,
                                           seed=5, verify=False)
        spec, plan = self._plan("algorithm1", scenario)
        kinds = {type(m) for m in
                 default_monitors(spec=spec, plan=plan, scenario=scenario)}
        assert kinds == {CoverageMonotonicityMonitor, HeadProgressMonitor,
                         BudgetMonitor, StabilityMonitor, EnvelopeMonitor}

    def test_flat_probabilistic_gets_coverage_and_envelope(self):
        scenario = one_interval_scenario(n0=12, k=3, seed=1, verify=False)
        spec, plan = self._plan("gossip", scenario)
        monitors = default_monitors(spec=spec, plan=plan, scenario=scenario)
        assert [type(m) for m in monitors] == [CoverageMonotonicityMonitor,
                                               EnvelopeMonitor]

    def test_dhop_relaxes_member_adjacency(self):
        from repro.experiments.scenarios import dhop_scenario

        scenario = dhop_scenario(n0=24, k=3, L=2, seed=5)
        spec, plan = self._plan("dhop-algorithm1", scenario)
        stability = [m for m in
                     default_monitors(spec=spec, plan=plan, scenario=scenario)
                     if isinstance(m, StabilityMonitor)]
        assert stability and stability[0].member_adjacency is False


def _healthy_scenario(seed=5):
    return hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2,
                                   seed=seed, verify=False)


def _break_hierarchy(scenario: Scenario, at_round: int) -> Scenario:
    """Swap a head's and a member's roles in one mid-block snapshot."""
    snaps = list(scenario.trace.snapshots)
    snap = snaps[at_round]
    head = next(v for v in range(snap.n) if snap.roles[v] is Role.HEAD)
    member = next(v for v in range(snap.n) if snap.roles[v] is Role.MEMBER)
    roles = list(snap.roles)
    roles[head], roles[member] = roles[member], roles[head]
    snaps[at_round] = Snapshot(adj=snap.adj, roles=tuple(roles),
                               head_of=snap.head_of)
    return replace(scenario, name=scenario.name + " (adversarial)",
                   trace=GraphTrace(snapshots=snaps,
                                    extend=scenario.trace.extend))


def _cut_member_edge(scenario: Scenario, at_round: int) -> Scenario:
    """Disconnect one affiliated member from its head in one snapshot."""
    snaps = list(scenario.trace.snapshots)
    snap = snaps[at_round]
    member = next(v for v in range(snap.n)
                  if snap.roles[v] is Role.MEMBER
                  and snap.head_of[v] is not None
                  and snap.head_of[v] in snap.adj[v])
    head = snap.head_of[member]
    adj = [set(neigh) for neigh in snap.adj]
    adj[member].discard(head)
    adj[head].discard(member)
    snaps[at_round] = Snapshot(adj=tuple(frozenset(s) for s in adj),
                               roles=snap.roles, head_of=snap.head_of)
    return replace(scenario, name=scenario.name + " (cut edge)",
                   trace=GraphTrace(snapshots=snaps,
                                    extend=scenario.trace.extend))


class TestMonitoredRuns:
    def test_healthy_hinet_run_is_clean(self):
        record = execute("algorithm1", _healthy_scenario(), monitor=True)
        assert record.result.violations == []

    def test_unmonitored_run_has_no_violation_stream(self):
        record = execute("algorithm1", _healthy_scenario())
        assert record.result.violations is None

    def test_adversarial_hierarchy_break_is_diagnosed(self):
        """Satellite: a scenario whose (T, L) assumptions break mid-run
        must trigger a stability-monitor diagnostic, on both engines,
        with identical violation streams."""
        scenario = _break_hierarchy(_healthy_scenario(), at_round=11)  # T=9
        ref = execute("algorithm1", scenario, monitor=True,
                      engine="reference")
        fast = execute("algorithm1", scenario, monitor=True, engine="fast")
        stability = [v for v in ref.result.violations
                     if v.monitor == "stability"]
        assert stability, "hierarchy break went undiagnosed"
        v = stability[0]
        assert "hierarchy changed" in v.message
        assert v.round == 11 and v.context["phase"] == 1
        assert fast.result.violations == ref.result.violations

    def test_adversarial_adjacency_cut_is_diagnosed(self):
        scenario = _cut_member_edge(_healthy_scenario(), at_round=4)
        ref = execute("algorithm1", scenario, monitor=True,
                      engine="reference")
        fast = execute("algorithm1", scenario, monitor=True, engine="fast")
        assert any("not adjacent" in v.message
                   for v in ref.result.violations
                   if v.monitor == "stability")
        assert fast.result.violations == ref.result.violations

    def test_monitored_runs_bypass_cache(self, tmp_path):
        from repro.experiments.cache import ResultCache

        store = ResultCache(tmp_path)
        execute("algorithm1", _healthy_scenario(), monitor=True, cache=store)
        assert len(store) == 0

    def test_cli_monitor_flag_reports(self, capsys):
        assert cli.main(["run", "algorithm1", "--n0", "24", "--theta", "7",
                         "--k", "3", "--monitor"]) == 0
        assert "no invariant violations" in capsys.readouterr().out


def _auto_scenario(spec, seed=5):
    return scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=seed)


@pytest.mark.skipif(
    not os.environ.get("REPRO_EQUIV_MONITORS"),
    reason="registry-wide monitor equivalence runs nightly "
    "(set REPRO_EQUIV_MONITORS=1)",
)
class TestRegistryWideMonitorEquivalence:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_violation_streams_engine_identical(self, spec):
        scenario = _auto_scenario(spec)
        overrides = {"seed": 9} if spec.seeded else {}
        ref = execute(spec, scenario, engine="reference", monitor=True,
                      **overrides)
        fast = execute(spec, scenario, engine="fast", monitor=True,
                       **overrides)
        assert ref.result.violations is not None
        assert fast.result.violations == ref.result.violations

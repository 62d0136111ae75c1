"""Tests for the energy substrate (budgets, lifetime, load skew)."""

import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.baselines.klo import make_klo_one_factory
from repro.core.algorithm2 import make_algorithm2_factory
from repro.energy.budget import EnergyLimitedNode, make_energy_factory
from repro.energy.lifetime import run_with_budget
from repro.experiments.scenarios import hinet_one_scenario
from repro.graphs.generators.static import path_graph, static_trace
from repro.sim.engine import run
from repro.sim.messages import Message
from repro.sim.node import NodeAlgorithm, RoundContext


class Chatty(NodeAlgorithm):
    """Broadcasts 2 tokens every round — a fixed drain for unit tests."""

    def send(self, ctx):
        return [Message.broadcast(self.node, {0, 1})]

    def receive(self, ctx, inbox):
        for m in inbox:
            self.TA |= m.tokens


def _ctx(r=0):
    return RoundContext(round_index=r, node=0, neighbors=frozenset({1}))


class TestEnergyLimitedNode:
    def test_charges_token_cost(self):
        node = EnergyLimitedNode(Chatty(0, 2, frozenset({0, 1})), budget=5)
        node.send(_ctx(0))
        assert node.spent == 2
        assert node.remaining == 3

    def test_suppresses_when_budget_insufficient(self):
        node = EnergyLimitedNode(Chatty(0, 2, frozenset({0, 1})), budget=3)
        assert node.send(_ctx(0))          # 2 spent, 1 left
        assert node.send(_ctx(1)) == []    # 2 > 1: suppressed
        assert node.depleted
        assert node.depleted_at == 1

    def test_exact_budget_depletes_after_use(self):
        node = EnergyLimitedNode(Chatty(0, 2, frozenset({0, 1})), budget=2)
        assert node.send(_ctx(0))
        assert node.depleted_at == 0
        assert node.send(_ctx(1)) == []

    def test_receiving_free_and_shared_TA(self):
        base = Chatty(0, 2, frozenset())
        node = EnergyLimitedNode(base, budget=0)
        node.receive(_ctx(), [Message.broadcast(1, {1})])
        assert 1 in node.TA and 1 in base.TA
        assert node.spent == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            EnergyLimitedNode(Chatty(0, 2, frozenset()), budget=-1)

    def test_heterogeneous_budgets(self):
        factory = make_energy_factory(
            make_flood_all_factory(), budget=1.0, budgets={0: 100.0}
        )
        rich = factory(0, 1, frozenset({0}))
        poor = factory(1, 1, frozenset({0}))
        assert rich.budget == 100.0 and poor.budget == 1.0


class TestBudgetedRuns:
    def test_generous_budget_changes_nothing(self):
        trace = static_trace(path_graph(5), rounds=10)
        init = {0: frozenset({0})}
        plain = run(trace, make_flood_all_factory(), k=1, initial=init,
                    max_rounds=10, stop_when_complete=True)
        rep = run_with_budget(trace, make_flood_all_factory(), k=1,
                              initial=init, max_rounds=10, budget=1e9,
                              stop_when_complete=True)
        assert rep.complete
        assert rep.first_depletion_round is None
        assert rep.spent_total == plain.metrics.tokens_sent

    def test_starved_budget_blocks_dissemination(self):
        trace = static_trace(path_graph(6), rounds=10)
        rep = run_with_budget(trace, make_flood_all_factory(), k=1,
                              initial={0: frozenset({0})}, max_rounds=10,
                              budget=1.0)
        # each node can transmit once; flooding needs repetition on a path?
        # actually one send per node suffices on a static path: the token
        # relays one hop per round with fresh senders. So it completes:
        assert rep.complete
        # but everyone depleted after their single transmission
        assert rep.depleted_count >= 5

    def test_zero_budget_nothing_moves(self):
        trace = static_trace(path_graph(4), rounds=5)
        rep = run_with_budget(trace, make_flood_all_factory(), k=1,
                              initial={0: frozenset({0})}, max_rounds=5,
                              budget=0.0)
        assert not rep.complete
        assert rep.spent_total == 0

    def test_hierarchical_load_concentrates_on_backbone(self):
        """Algorithm 2 drains heads/gateways while members idle — higher
        skew than flat KLO where everyone transmits equally."""
        scenario = hinet_one_scenario(n0=30, theta=9, k=3, L=2, seed=17)
        hinet = run_with_budget(
            scenario.trace, make_algorithm2_factory(M=29), k=3,
            initial=scenario.initial, max_rounds=29, budget=1e9,
        )
        flat = run_with_budget(
            scenario.trace, make_klo_one_factory(M=29), k=3,
            initial=scenario.initial, max_rounds=29, budget=1e9,
        )
        assert hinet.complete and flat.complete
        assert hinet.spent_total < flat.spent_total  # the paper's saving
        assert hinet.load_skew > flat.load_skew      # ...paid in skew

    def test_report_consistency(self):
        scenario = hinet_one_scenario(n0=20, theta=6, k=2, L=2, seed=19)
        rep = run_with_budget(
            scenario.trace, make_algorithm2_factory(M=19), k=2,
            initial=scenario.initial, max_rounds=19, budget=1e9,
        )
        assert rep.spent_total == pytest.approx(sum(rep.per_node_spent.values()))
        assert rep.spent_max == max(rep.per_node_spent.values())
        assert rep.load_skew >= 1.0

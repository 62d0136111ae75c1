"""Tests for message-loss fault injection in the engine."""

import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.graphs.generators.static import complete_graph, path_graph, static_trace
from repro.sim.engine import run
from repro.sim.linkmodel import IidLoss
from repro.sim.messages import initial_assignment


class TestLossConfiguration:
    def test_loss_p_validated(self):
        with pytest.raises(ValueError):
            IidLoss(1.0)
        with pytest.raises(ValueError):
            IidLoss(-0.1)

    def test_zero_loss_is_default_path(self):
        trace = static_trace(path_graph(4), rounds=5)
        res = run(trace, make_flood_all_factory(), k=1,
                  initial={0: frozenset({0})}, max_rounds=5,
                  stop_when_complete=True)
        assert res.metrics.lost_deliveries == 0


class TestLossBehaviour:
    def test_losses_recorded_and_reproducible(self):
        trace = static_trace(complete_graph(10), rounds=20)
        init = initial_assignment(3, 10, mode="spread")

        def go():
            return run(trace, make_flood_all_factory(), k=3, initial=init,
                       max_rounds=20, stop_when_complete=True,
                       link=IidLoss(0.3, seed=7))

        a, b = go(), go()
        assert a.metrics.lost_deliveries > 0
        assert a.metrics.lost_deliveries == b.metrics.lost_deliveries
        assert a.metrics.completion_round == b.metrics.completion_round

    def test_sends_still_charged_under_loss(self):
        """The radio transmits even when every receiver fades out."""
        trace = static_trace(path_graph(3), rounds=4)
        res = run(trace, make_flood_all_factory(), k=1,
                  initial={0: frozenset({0})}, max_rounds=4,
                  link=IidLoss(0.9, seed=1))
        assert res.metrics.tokens_sent > 0

    def test_repetition_overcomes_moderate_loss(self):
        """Unconditional flooding eventually delivers despite 30% loss —
        the robustness argument for repetition-bearing algorithms."""
        trace = static_trace(path_graph(8), rounds=60)
        res = run(trace, make_flood_all_factory(), k=2,
                  initial=initial_assignment(2, 8, mode="spread"),
                  max_rounds=60, stop_when_complete=True,
                  link=IidLoss(0.3, seed=3))
        assert res.complete
        # ...but slower than the loss-free run
        clean = run(trace, make_flood_all_factory(), k=2,
                    initial=initial_assignment(2, 8, mode="spread"),
                    max_rounds=60, stop_when_complete=True)
        assert res.metrics.completion_round >= clean.metrics.completion_round

    def test_heavy_loss_slows_more_than_light_loss(self):
        trace = static_trace(path_graph(10), rounds=200)
        init = initial_assignment(2, 10, mode="spread")
        light = run(trace, make_flood_all_factory(), k=2, initial=init,
                    max_rounds=200, stop_when_complete=True,
                    link=IidLoss(0.1, seed=11))
        heavy = run(trace, make_flood_all_factory(), k=2, initial=init,
                    max_rounds=200, stop_when_complete=True,
                    link=IidLoss(0.7, seed=11))
        assert light.complete
        if heavy.complete:
            assert heavy.metrics.completion_round >= light.metrics.completion_round

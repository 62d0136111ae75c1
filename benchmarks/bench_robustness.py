"""Extension X7 — robustness to message loss.

The paper proves its algorithms on reliable links.  This bench injects
per-delivery radio loss (the engine's fault model) and measures how the
delivery guarantee degrades: repetition-bearing algorithms (Algorithm 2,
KLO, full flooding) keep completing at moderate loss — repetition doubles
as retransmission — while epidemic flooding collapses immediately.
"""

from __future__ import annotations

from repro.baselines.flooding import make_flood_all_factory, make_flood_new_factory
from repro.baselines.klo import make_klo_one_factory
from repro.core.algorithm2 import make_algorithm2_factory
from repro.experiments.report import format_records
from repro.experiments.scenarios import hinet_one_scenario
from repro.sim.engine import SynchronousEngine
from repro.sim.linkmodel import IidLoss


def _robustness(loss_levels=(0.0, 0.1, 0.3), n0=40, k=4, seed=61):
    scenario = hinet_one_scenario(n0=n0, theta=12, k=k, L=2, seed=seed,
                                  rounds=3 * n0)
    M = 3 * n0  # grace rounds beyond the loss-free bound
    algos = {
        "Algorithm 2 (HiNet)": make_algorithm2_factory(M=M),
        "KLO (1-interval)": make_klo_one_factory(M=M),
        "Flood (all)": make_flood_all_factory(),
        "Flood (new only)": make_flood_new_factory(),
    }
    rows = []
    for loss in loss_levels:
        for name, factory in algos.items():
            engine = SynchronousEngine(
                link=IidLoss(loss, seed=seed) if loss else None
            )
            res = engine.run(
                scenario.trace, factory, k=k, initial=scenario.initial,
                max_rounds=M, stop_when_complete=True,
            )
            rows.append(
                {
                    "loss_p": loss,
                    "algorithm": name,
                    "completion": res.metrics.completion_round,
                    "tokens_sent": res.metrics.tokens_sent,
                    "lost": res.metrics.lost_deliveries,
                    "complete": res.complete,
                }
            )
    return rows


def test_robustness_under_loss(benchmark, save_result):
    rows = benchmark.pedantic(_robustness, rounds=1, iterations=1)
    text = "X7 — delivery under per-link message loss (n=40, k=4)\n\n"
    text += format_records(rows)
    save_result("robustness_loss", text)
    print("\n" + text)

    by = {(r["loss_p"], r["algorithm"]): r for r in rows}
    # repetition-bearing algorithms survive moderate loss
    for loss in (0.0, 0.1, 0.3):
        assert by[(loss, "Algorithm 2 (HiNet)")]["complete"], loss
        assert by[(loss, "KLO (1-interval)")]["complete"], loss
        assert by[(loss, "Flood (all)")]["complete"], loss
    # loss slows Algorithm 2 down (weakly) but never kills it
    done = [by[(l, "Algorithm 2 (HiNet)")]["completion"] for l in (0.0, 0.3)]
    assert done[0] <= done[1]

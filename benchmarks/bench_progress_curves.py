"""Extension X16 — dissemination progress curves.

The coverage S-curve (fraction of (node, token) pairs known per round)
is the time-domain view the paper's tables summarise to one number.
This bench records it for the four Table-3 algorithm/model pairs and
persists sparkline renderings — showing *how* each algorithm spends its
rounds: KLO's broad front vs the hierarchy's upload → backbone →
download waves.
"""

from __future__ import annotations

from repro.experiments.report import format_records
from repro.experiments.runner import execute
from repro.experiments.scenarios import hinet_interval_scenario, hinet_one_scenario
from repro.viz import sparkline


def _curves(n0=60, seed=107):
    k, alpha, L, theta = 8, 5, 2, 18
    interval = hinet_interval_scenario(
        n0=n0, theta=theta, k=k, alpha=alpha, L=L, seed=seed,
    )
    one = hinet_one_scenario(n0=n0, theta=theta, k=k, L=L, seed=seed)

    records = [
        execute("algorithm1", interval),
        execute("klo-interval", interval),
        execute("algorithm2", one),
        execute("klo-one", one),
    ]
    curves = []
    for rec in records:
        m = rec.result.metrics
        full = rec.n * rec.k
        fractions = [c / full for c in m.per_round_coverage]
        curves.append(
            {
                "algorithm": rec.algorithm,
                "curve": sparkline(fractions, width=50),
                "completion": rec.completion_round,
                "tokens": rec.tokens_sent,
                "complete": rec.complete,
            }
        )
    return curves


def test_progress_curves(benchmark, save_result):
    rows = benchmark.pedantic(_curves, rounds=1, iterations=1)
    text = "X16 — coverage S-curves per algorithm (n=60, k=8)\n\n"
    text += format_records(rows, columns=["algorithm", "completion",
                                          "tokens", "complete"])
    text += "\n\n"
    for r in rows:
        text += f"  {r['algorithm']:<24s} {r['curve']}\n"
    save_result("progress_curves", text)
    print("\n" + text)

    assert all(r["complete"] for r in rows)
    # every curve ends saturated and is monotone by construction
    for r in rows:
        assert r["curve"].endswith("█")
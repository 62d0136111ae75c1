"""Reproduction of the paper's Tables 2 and 3.

Two layers:

* **Analytic** — evaluate the Table 2 closed forms
  (:func:`repro.core.analysis.table2` at any parameters; exact
  reproduction, since Tables 2 and 3 in the paper are analytical, not
  measured).
* **Simulated** — run the four algorithms on verified generated scenarios
  with the same parameters and report measured rounds / tokens next to
  the predictions.  The check is on *shape*: HiNet ≪ KLO in tokens at
  similar-or-better rounds.  Fairness note: each model pair (Algorithm 1
  vs T-interval KLO; Algorithm 2 vs 1-interval KLO) runs on the *same*
  trace — the flat baselines simply ignore the role annotations.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.analysis import (
    TABLE3_PAPER,
    TABLE3_PARAMS,
    TABLE3_PARAMS_ONE,
    table2,
)
from ..sim.rng import SeedLike, derive_seed
from .cache import CacheLike
from .runner import RunRecord, execute
from .scenarios import hinet_interval_scenario, hinet_one_scenario

__all__ = [
    "analytic_table3",
    "simulated_table3",
]


def analytic_table3() -> List[Dict[str, object]]:
    """Table 3: formulas at the paper's parameters, annotated with the
    published values and the deviation (zero on three rows; the fourth
    carries the paper's 960-token arithmetic slip — see EXPERIMENTS.md)."""
    rows = table2(TABLE3_PARAMS, TABLE3_PARAMS_ONE)
    for row in rows:
        published = TABLE3_PAPER[str(row["model"])]
        row["paper_time"] = published["time_rounds"]
        row["paper_comm"] = published["comm_tokens"]
        row["comm_deviation"] = float(row["comm_tokens"]) - published["comm_tokens"]
    return rows


def simulated_table3(
    seed: SeedLike = 2013, n0: int = 100, cache: CacheLike = None
) -> List[Dict[str, object]]:
    """Measured counterpart of Table 3 on verified generated scenarios.

    Returns one row per Table 3 line with measured completion round and
    tokens sent.  Scenario parameters follow the paper: θ = 0.3·n₀ (30 at
    the paper's n₀=100 — the ratio, not the absolute count, carries the
    advantage: the cost model itself shows HiNet *losing* when θ/n₀ grows
    too large), k=8, α=5, L=2; member re-affiliation pressure is higher in
    the (1, L) scenario.

    The four rows execute by registry name through the unified
    :func:`~repro.experiments.runner.execute` path; with ``cache`` set, a
    re-run of the table is four cache hits.
    """
    k, alpha, L = 8, 5, 2
    theta = max(round(0.3 * n0), alpha)

    interval = hinet_interval_scenario(
        n0=n0, theta=theta, k=k, alpha=alpha, L=L,
        reaffiliation_p=0.1, churn_p=0.02, seed=derive_seed(seed, "interval"),
    )
    one = hinet_one_scenario(
        n0=n0, theta=theta, k=k, L=L,
        reaffiliation_p=0.3, head_churn=2, churn_p=0.02,
        seed=derive_seed(seed, "one"),
    )

    # Order mirrors Table 3's rows (zipped with ``analytic_table3`` below).
    records: List[RunRecord] = [
        execute("klo-interval", interval, cache=cache),
        execute("algorithm1", interval, cache=cache),
        execute("klo-one", one, cache=cache),
        execute("algorithm2", one, cache=cache),
    ]

    analytic = analytic_table3()
    rows: List[Dict[str, object]] = []
    for rec, ana in zip(records, analytic):
        rows.append(
            {
                "model": ana["model"],
                "analytic_time": ana["time_rounds"],
                "measured_completion": rec.completion_round,
                "analytic_comm": ana["comm_tokens"],
                "measured_comm": rec.tokens_sent,
                "complete": rec.complete,
            }
        )
    return rows

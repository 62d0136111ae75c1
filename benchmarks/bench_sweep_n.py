"""Extension X1 — cost vs network size.

Sweeps n₀ with θ = 0.3·n₀ (the paper's Table 3 ratio) and reports
measured communication/time for Algorithm 1 vs the T-interval KLO
baseline on shared traces.  Asserts the paper's shape: the HiNet
communication advantage holds at every size and *grows* with n₀ (KLO's
comm is Θ(n₀²k); HiNet's leading term is Θ(θ·n₀·k/α) with the member
term suppressed).
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.history import default_bench_path, record_bucket
from repro.experiments.report import format_records
from repro.experiments.sweeps import sweep_n


def test_sweep_n(benchmark, save_result, result_cache):
    kwargs = dict(ns=(40, 80, 120, 160), k=6, alpha=3, L=2, seed=17,
                  cache=result_cache)
    rows = benchmark.pedantic(sweep_n, kwargs=kwargs, rounds=1, iterations=1)
    text = "X1 — communication & time vs network size (theta = 0.3 n0)\n\n"
    text += format_records(rows)
    save_result("sweep_n", text)
    print("\n" + text)

    record_bucket(default_bench_path(Path(__file__).resolve().parent), {
        "sweep_n_x1": {
            "cells": len(rows),
            "ns": "40,80,120,160",
            "median_ms": round(benchmark.stats.stats.median * 1000.0, 3),
            "engine": "fast (runner default)",
            "cache_entries": len(result_cache),
        },
    })

    # resumability: a warm re-run replays every cell from disk,
    # row-for-row identical to the cold sweep
    assert len(result_cache) > 0
    assert sweep_n(**kwargs) == rows

    assert all(r["hinet_complete"] and r["klo_complete"] for r in rows)
    # advantage at every size...
    for r in rows:
        assert r["comm_ratio"] > 1.0, r
    # ...and the analytic ratio grows with n (measured allowed noise, so
    # compare first vs last rather than requiring monotonicity per step)
    first, last = rows[0], rows[-1]
    analytic_first = first["analytic_klo_comm"] / first["analytic_hinet_comm"]
    analytic_last = last["analytic_klo_comm"] / last["analytic_hinet_comm"]
    assert analytic_last >= analytic_first

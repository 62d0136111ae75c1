"""Table 2 — the analytical cost model (paper, Section V).

Regenerates all four rows (time in rounds, communication in tokens) from
the closed forms, both at the paper's Table 3 parameters and across a
parameter grid, and asserts the paper's qualitative claims on every grid
point where its premise (n_r ≪ n₀, θ < n₀) holds.
"""

from __future__ import annotations

from repro.core.analysis import (
    CostParams,
    hinet_interval_comm,
    hinet_interval_time,
    hinet_one_comm,
    klo_interval_comm,
    klo_interval_time,
    klo_one_comm,
    table2,
)
from repro.experiments.report import format_records


def _grid():
    for n0 in (50, 100, 200, 400):
        for k in (4, 8, 16):
            for alpha in (2, 5):
                theta = max(n0 * 3 // 10, alpha)
                nm = n0 * 4 // 10
                yield CostParams(n0=n0, theta=theta, nm=nm, nr=3, k=k,
                                 alpha=alpha, L=2)


def _evaluate_grid():
    rows = []
    for p in _grid():
        rows.append(
            {
                "n0": p.n0, "k": p.k, "alpha": p.alpha, "theta": p.theta,
                "klo_T_time": klo_interval_time(p),
                "hinet_T_time": hinet_interval_time(p),
                "klo_T_comm": klo_interval_comm(p),
                "hinet_T_comm": hinet_interval_comm(p),
                "klo_1_comm": klo_one_comm(p),
                "hinet_1_comm": hinet_one_comm(p),
            }
        )
    return rows


def test_table2_grid(benchmark, save_result):
    rows = benchmark(_evaluate_grid)
    for row in rows:
        # the paper's claims at its operating point (theta/n0 = 0.3, nr small):
        assert row["hinet_T_comm"] < row["klo_T_comm"], row
        assert row["hinet_1_comm"] < row["klo_1_comm"], row
    text = "Table 2 cost model over a parameter grid (L=2, nm=0.4*n0, nr=3)\n\n"
    text += format_records(rows)
    save_result("table2_cost_model", text)
    print("\n" + text)


def test_table2_symbolic_rows(benchmark, save_result):
    """The four Table 2 rows rendered at the paper's Table 3 parameters."""
    p = CostParams(n0=100, theta=30, nm=40, nr=3, k=8, alpha=5, L=2)
    rows = benchmark(table2, p)
    text = "Table 2 rows at the Table 3 operating point\n\n" + format_records(rows)
    save_result("table2_rows", text)
    print("\n" + text)
    assert rows[1]["comm_tokens"] < rows[0]["comm_tokens"]
    assert rows[3]["comm_tokens"] < rows[2]["comm_tokens"]
    # time: HiNet's phase count beats KLO's at this theta
    assert rows[1]["time_rounds"] <= rows[0]["time_rounds"]

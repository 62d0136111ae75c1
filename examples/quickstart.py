#!/usr/bin/env python
"""Quickstart: disseminate k tokens in a (T, L)-HiNet and compare with KLO.

This is the library's 60-second tour:

1. generate a *verified* (T, L)-HiNet scenario (Definition 8 checked),
2. run the paper's Algorithm 1 on it,
3. run the Kuhn–Lynch–Oshman baseline on the *same* dynamic graph,
4. compare measured communication and time against the Table 2 formulas.

Run:  python examples/quickstart.py
"""

from repro.core.analysis import CostParams, hinet_interval_comm, klo_interval_comm
from repro.experiments import execute, format_records, hinet_interval_scenario


def main() -> None:
    # --- 1. a verified scenario -----------------------------------------
    # 100 nodes, up to 30 cluster heads, 8 tokens, alpha=5, L=2 — the
    # paper's Table 3 operating point.  The builder checks Definition 8
    # on the generated trace before returning it.
    scenario = hinet_interval_scenario(
        n0=100, theta=30, k=8, alpha=5, L=2, seed=2013,
    )
    print(f"scenario: {scenario.name}")
    print(f"  phase length T = {scenario.params['T']} rounds, "
          f"{scenario.params['phases']} phases")
    print(f"  empirical members/round n_m = {scenario.params['nm']:.1f}, "
          f"re-affiliations n_r = {scenario.params['nr']:.2f}")
    print()

    # --- 2 & 3. run both algorithms on the same trace --------------------
    ours = execute("algorithm1", scenario)
    theirs = execute("klo-interval", scenario)

    rows = [r.row() for r in (ours, theirs)]
    print(format_records(rows))
    print()

    # --- 4. compare with the analytical model ----------------------------
    params = CostParams(
        n0=100, theta=30, nm=float(scenario.params["nm"]),
        nr=float(scenario.params["nr"]), k=8, alpha=5, L=2,
    )
    print(f"Table 2 prediction:  HiNet {hinet_interval_comm(params):.0f} tokens, "
          f"KLO {klo_interval_comm(params):.0f} tokens")
    saving = theirs.tokens_sent / ours.tokens_sent
    print(f"measured saving: {saving:.2f}x fewer tokens with the hierarchy")
    assert ours.complete and theirs.complete


if __name__ == "__main__":
    main()

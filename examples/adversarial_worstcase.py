#!/usr/bin/env python
"""Adversarial dynamics: who still delivers, and at what price?

Dynamic-network theory is about worst cases.  This example pits the
dissemination family against two adversaries:

* the **shuffled path** — a fresh random Hamiltonian path every round
  (1-interval connected, nothing persists), and
* the **rotating star** — per-round diameter 2, yet provably ~n rounds
  for flooding because the uninformed centre keeps moving.

Guaranteed algorithms (flooding, KLO, Algorithm 2 on a clustered overlay)
deliver on both; the cheap heuristics (epidemic flood, A-active flood)
are shown *failing* on a crafted miss — the structural reason the paper
insists on repetition with proofs.

Run:  python examples/adversarial_worstcase.py
"""

from repro.baselines import (
    make_flood_all_factory,
    make_flood_new_factory,
    make_kactive_factory,
)
from repro.experiments import (
    execute,
    format_records,
    hinet_one_scenario,
    one_interval_scenario,
)
from repro.graphs.generators import rotating_star_trace
from repro.sim import Snapshot, run
from repro.sim.topology import GraphTrace


def family_on_shuffled_path() -> None:
    n, k = 40, 4
    flat = one_interval_scenario(n0=n, k=k, rounds=4 * n, seed=17)
    clustered = hinet_one_scenario(n0=n, theta=12, k=k, L=2, seed=17)

    records = [
        execute("algorithm2", clustered),
        execute("klo-one", flat),
        execute("flood-all", flat, rounds=n - 1, stop_when_complete=False),
        execute("flood-new", flat),
        execute("kactive", flat, A=2),
    ]
    print("=== shuffled-path adversary (n=40, k=4) ===")
    print(format_records([
        {"algorithm": r.algorithm, "completion": r.completion_round,
         "tokens_sent": r.tokens_sent, "complete": r.complete}
        for r in records
    ]))
    print()


def rotating_star_slowdown() -> None:
    n, k = 16, 1
    trace = rotating_star_trace(n, rounds=3 * n, stride=1)
    res = run(trace, make_flood_all_factory(), k=k,
              initial={1: frozenset({0})}, max_rounds=3 * n,
              stop_when_complete=True)
    print("=== rotating-star adversary ===")
    print(f"per-round diameter 2, yet full flooding of ONE token took "
          f"{res.metrics.completion_round} rounds on n={n} nodes")
    print("(the uninformed centre rotates away each round — dynamics, not")
    print(" distance, is what costs rounds in dynamic networks)")
    print()


def crafted_miss_for_heuristics() -> None:
    # token broadcast once on edge (0,1); its eventual audience (node 2)
    # only becomes adjacent after every heuristic has gone quiet
    rounds = [[(0, 1)], [(0, 1)], [(0, 1)], [(1, 2)]]
    trace = GraphTrace([Snapshot.from_edges(3, e) for e in rounds])
    rows = []
    for name, factory in (
        ("Flood (all)", make_flood_all_factory()),
        ("Flood (new only)", make_flood_new_factory()),
        ("2-active flood", make_kactive_factory(A=2)),
    ):
        res = run(trace, factory, k=1, initial={0: frozenset({0})}, max_rounds=4)
        rows.append({"algorithm": name, "complete": res.complete,
                     "tokens_sent": res.metrics.tokens_sent})
    print("=== crafted miss: audience appears after the heuristics go quiet ===")
    print(format_records(rows))
    print("only unconditional repetition survives an adaptive edge schedule.")


def main() -> None:
    family_on_shuffled_path()
    rotating_star_slowdown()
    crafted_miss_for_heuristics()


if __name__ == "__main__":
    main()

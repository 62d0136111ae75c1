#!/usr/bin/env python
"""Reproduce the paper's Tables 2 and 3 and print them side by side with
the published values and a simulated counterpart.

Run:  python examples/reproduce_tables.py
"""

from repro.core.analysis import CostParams, table2
from repro.experiments import analytic_table3, format_records, simulated_table3


def main() -> None:
    print("Table 2 — closed forms at the paper's operating point")
    p = CostParams(n0=100, theta=30, nm=40, nr=3, k=8, alpha=5, L=2)
    print(format_records(table2(p)))
    print()

    print("Table 3 — analytic, with published values and deviations")
    print(format_records(analytic_table3()))
    print("(the -960 deviation is an arithmetic slip in the original paper;")
    print(" the formula in the paper's own Table 2 yields 50 720)")
    print()

    print("Table 3 — simulated on verified generated scenarios (n0=100)")
    print(format_records(simulated_table3(seed=2013, n0=100)))
    print()
    print("reproduction target is the SHAPE: the hierarchy roughly halves")
    print("communication at similar-or-better time; absolute analytic")
    print("numbers are worst-case bounds, measured runs finish earlier.")


if __name__ == "__main__":
    main()

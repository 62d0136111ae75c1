#!/usr/bin/env python
"""Multi-hop clusters: the paper's future work, made runnable.

Builds d-hop hierarchical scenarios for radii d = 1, 2, 3 and runs the
tree-relayed dissemination against flat KLO on the same traces —
quantifying the trade-off the paper's Section VI poses: deeper clusters
mean fewer heads but longer relay pipelines and a wider broadcasting
interior.

Also demonstrates d-hop *formation* on a real topology: clustering a
random geometric graph with radius 2 and rendering the relay forest.

Run:  python examples/multihop_clusters.py
"""

from repro.baselines.klo import make_klo_one_factory
from repro.experiments.report import format_records
from repro.mobility import Field, unit_disk_snapshot
from repro.multihop import DHopParams, dhop_clustering, generate_dhop, make_dhop_factory
from repro.sim import initial_assignment, run


def radius_sweep() -> None:
    n, k = 60, 5
    init = initial_assignment(k, n, mode="spread")
    rows = []
    for d in (1, 2, 3):
        params = DHopParams(n=n, num_heads=5, T=6, phases=12, d=d, L=2,
                            reaffiliation_p=0.1, churn_p=0.0)
        scen = generate_dhop(params, seed=53)
        M = scen.trace.horizon
        ours = run(scen.trace, make_dhop_factory(M=M, scenario=scen), k=k,
                   initial=init, max_rounds=M)
        klo = run(scen.trace, make_klo_one_factory(M=M), k=k,
                  initial=init, max_rounds=M)
        rows.append({
            "d": d,
            "dhop_comm": ours.metrics.tokens_sent,
            "dhop_completion": ours.metrics.completion_round,
            "klo_comm": klo.metrics.tokens_sent,
            "complete": ours.complete,
        })
    print("=== cluster radius sweep (n=60, k=5, 5 heads) ===")
    print(format_records(rows))
    print()


def formation_demo() -> None:
    field = Field(300, 300)
    positions = field.uniform_positions(24, seed=11)
    snap = unit_disk_snapshot(positions, radius=90)
    asg = dhop_clustering(snap, d=2)
    asg.validate(snap)

    print("=== d=2 formation on a random geometric graph (n=24) ===")
    for head in sorted(asg.heads):
        members = sorted(asg.cluster(head))
        print(f"  cluster {head}:")
        for v in members:
            if v == head:
                continue
            chain = [v]
            while chain[-1] != head:
                chain.append(asg.parent[chain[-1]])
            print(f"    {' -> '.join(map(str, chain))}  (depth {asg.depth[v]})")
    depths = [asg.depth[v] for v in range(asg.n)]
    print(f"  heads: {len(asg.heads)}, max depth: {max(depths)}")


def main() -> None:
    radius_sweep()
    formation_demo()


if __name__ == "__main__":
    main()

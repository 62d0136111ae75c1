"""Reproduction of the paper's Figures 1–3.

The paper's figures are illustrative rather than measured; each function
here regenerates the illustrated object programmatically and renders it as
text, so the benches both exercise real library code and produce a
reviewable artifact.

* Figure 1 — an example network with a constructed cluster hierarchy.
* Figure 2 — the definition lattice, evaluated live on generated traces.
* Figure 3 — an Algorithm-1 walkthrough showing one token's journey
  member → head → gateway → head → members.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.algorithm1 import make_algorithm1_factory
from ..graphs.generators.hinet import HiNetParams, generate_hinet
from ..graphs.properties import definition_report
from ..roles import Role
from ..sim.engine import SynchronousEngine
from ..sim.topology import Snapshot

__all__ = ["fig1_example_network", "fig2_definition_lattice", "fig3_walkthrough"]


def fig1_example_network() -> Tuple[Snapshot, str]:
    """Figure 1: a small clustered network, hand-laid like the paper's sketch.

    Three clusters (heads 0, 4, 8), two gateways (3 linking 0–4 and 7
    linking 4–8), and ordinary members — the structural archetype of
    every (T, L)-HiNet scenario.
    """
    roles = {
        0: Role.HEAD, 4: Role.HEAD, 8: Role.HEAD,
        3: Role.GATEWAY, 7: Role.GATEWAY,
    }
    head_of = {0: 0, 1: 0, 2: 0, 3: 0, 4: 4, 5: 4, 6: 4, 7: 4, 8: 8, 9: 8, 10: 8}
    edges = [
        (0, 1), (0, 2), (0, 3),          # cluster of head 0
        (3, 4),                          # gateway 3 bridges 0 -> 4
        (4, 5), (4, 6), (4, 7),          # cluster of head 4
        (7, 8),                          # gateway 7 bridges 4 -> 8
        (8, 9), (8, 10),                 # cluster of head 8
        (1, 2), (5, 6),                  # intra-cluster member links
    ]
    n = 11
    snap = Snapshot.from_edges(
        n,
        edges,
        roles=[roles.get(v, Role.MEMBER) for v in range(n)],
        head_of=[head_of[v] for v in range(n)],
    )
    snap.validate_hierarchy()

    lines = ["Figure 1 — example network with clusters", ""]
    for head, members in sorted(snap.clusters().items()):
        tags = []
        for v in sorted(members):
            role = snap.role(v)
            tags.append(f"{v}({role})")
        lines.append(f"  cluster {head}: " + ", ".join(tags))
    lines.append("")
    lines.append(
        "  backbone: 0 -(g3)- 4 -(g7)- 8   (head-to-head hop distance L = 2)"
    )
    return snap, "\n".join(lines)


def fig2_definition_lattice(seed: int = 7) -> Tuple[Dict[str, Dict[str, bool]], str]:
    """Figure 2: evaluate the Definition 2–8 lattice on contrasting traces.

    Three generated traces — a stable (T, L)-HiNet, a per-round-churning
    (1, L)-HiNet, and the stable one judged at double its actual interval —
    are scored against every definition, demonstrating which properties
    each class satisfies and that the lattice implications hold.
    """
    T, L = 12, 2
    stable = generate_hinet(
        HiNetParams(n=30, theta=8, num_heads=6, T=T, phases=4, L=L,
                    reaffiliation_p=0.2, churn_p=0.0),
        seed=seed,
    ).trace
    churny = generate_hinet(
        HiNetParams(n=30, theta=8, num_heads=6, T=1, phases=4 * T, L=L,
                    reaffiliation_p=0.5, head_churn=2, churn_p=0.0),
        seed=seed + 1,
    ).trace

    reports = {
        f"(T={T}, L={L})-HiNet trace @ T={T}": definition_report(stable, T, L),
        f"(1, L={L})-HiNet trace @ T={T}": definition_report(churny, T, L),
        f"(1, L={L})-HiNet trace @ T=1": definition_report(churny, 1, L),
    }

    names = ["Ts", "Tc", "Th", "Td", "Lhop", "TdL", "HiNet"]
    lines = ["Figure 2 — definition lattice evaluated on generated traces", ""]
    header = f"  {'trace':42s} " + " ".join(f"{n:>5s}" for n in names)
    lines.append(header)
    for label, rep in reports.items():
        cells = " ".join(f"{'yes' if rep[n] else 'no':>5s}" for n in names)
        lines.append(f"  {label:42s} {cells}")
    lines.append("")
    lines.append("  lattice: HiNet = Th & TdL;  Th => Ts & Tc;  TdL => Td & Lhop")
    return reports, "\n".join(lines)


def fig3_walkthrough(seed: int = 3) -> str:
    """Figure 3: one token's journey through Algorithm 1.

    A 3-cluster (T, L)-HiNet with a single token starting at an ordinary
    member; the rendered trace shows the paper's narrative — the member
    uploads to its head, the head broadcasts, gateways relay cluster to
    cluster, each head re-broadcasts to its members.
    """
    k, L, alpha = 1, 2, 1
    T = k + alpha * L
    params = HiNetParams(
        n=12, theta=3, num_heads=3, T=T, phases=4, L=L,
        reaffiliation_p=0.0, churn_p=0.0,
    )
    scen = generate_hinet(params, seed=seed)
    # place the single token on an ordinary member of the first round
    snap0 = scen.trace.snapshot(0)
    member = min(
        v for v in range(snap0.n) if snap0.role(v) is Role.MEMBER
    )
    result = SynchronousEngine(obs="record").run(
        scen.trace,
        make_algorithm1_factory(T=T, M=4),
        k=k,
        initial={member: frozenset({0})},
        max_rounds=4 * T,
        stop_when_complete=True,
    )
    assert result.recording is not None

    lines = [
        "Figure 3 — Algorithm 1 walkthrough (k=1 token, 3 clusters, "
        f"T={T}, L={L})",
        f"  token 0 starts at member node {member}",
        "",
    ]
    # the token's first hop to each node, rebuilt from the message log:
    # exact here because the run is loss-free with latency 1, so a
    # broadcast reaches every neighbour and a unicast its adjacent dest
    seen = set()
    for r, delta in enumerate(result.recording.rounds):
        snap = scen.trace.snapshot(r)
        for msg in delta.messages:
            if 0 not in msg.tokens:
                continue
            nbrs = snap.adj[msg.sender]
            if msg.kind == "b":
                audience = nbrs
            else:
                audience = (msg.dest,) if msg.dest in nbrs else ()
            for receiver in audience:
                if receiver in seen:
                    continue
                seen.add(receiver)
                lines.append(
                    f"  round {r:2d}: node {msg.sender} ({snap.role(msg.sender)})"
                    f" -> node {receiver} ({snap.role(receiver)})"
                )
    status = "complete" if result.complete else "INCOMPLETE"
    lines.append("")
    lines.append(
        f"  dissemination {status} at round {result.metrics.completion_round}, "
        f"{result.metrics.tokens_sent} tokens sent"
    )
    return "\n".join(lines)

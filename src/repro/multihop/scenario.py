"""Generator of d-hop hierarchical scenarios.

The d-hop analogue of the (T, L)-HiNet generator: time is divided into
phases of ``T`` rounds; within a phase the hierarchy — heads, the
gateway backbone (consecutive heads at hop distance ``L``), and each
cluster's relay tree of depth ≤ ``d`` — is frozen, while noise edges
churn per round.  At phase boundaries members may re-affiliate (they
re-attach to a random node of the new cluster's tree with spare depth).

Because members are no longer adjacent to their heads, these traces do
**not** satisfy the 1-hop CTVG invariant; validation goes through
:meth:`repro.multihop.formation.DHopAssignment.validate` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graphs.generators.hinet import _build_backbone
from ..graphs.generators.static import erdos_renyi
from ..roles import Role
from ..sim.rng import SeedLike, make_rng
from ..sim.topology import GraphTrace, Snapshot
from .formation import DHopAssignment

__all__ = ["DHopParams", "DHopScenario", "generate_dhop"]


@dataclass(frozen=True)
class DHopParams:
    """Knobs of the d-hop scenario generator.

    Mirrors :class:`~repro.graphs.generators.hinet.HiNetParams` with the
    extra cluster radius ``d``.
    """

    n: int
    num_heads: int
    T: int
    phases: int
    d: int = 2
    L: int = 2
    reaffiliation_p: float = 0.1
    churn_p: float = 0.02

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least two nodes, got n={self.n}")
        if self.num_heads < 1:
            raise ValueError(f"need at least one head, got {self.num_heads}")
        if self.T < 1 or self.phases < 1:
            raise ValueError("T and phases must be >= 1")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.L not in (1, 2, 3):
            raise ValueError(f"L must be 1, 2 or 3, got {self.L}")
        if not (0.0 <= self.reaffiliation_p <= 1.0):
            raise ValueError(
                f"reaffiliation_p must be a probability, got {self.reaffiliation_p}"
            )
        if not (0.0 <= self.churn_p <= 1.0):
            raise ValueError(f"churn_p must be a probability, got {self.churn_p}")
        gw = (self.num_heads - 1) * (self.L - 1)
        if self.num_heads + gw > self.n:
            raise ValueError(
                f"n={self.n} too small for {self.num_heads} heads at L={self.L}"
            )

    @property
    def rounds(self) -> int:
        """Trace horizon."""
        return self.T * self.phases


@dataclass
class DHopScenario:
    """A generated d-hop scenario: the trace plus per-phase assignments."""

    trace: GraphTrace
    params: DHopParams
    assignments: List[DHopAssignment]  # one per phase

    @property
    def n(self) -> int:
        return self.params.n

    def assignment_at(self, r: int) -> DHopAssignment:
        """The d-hop assignment in force at round ``r``."""
        phase = min(r // self.params.T, len(self.assignments) - 1)
        return self.assignments[phase]

    def parent_of(self, v: int, r: int) -> Optional[int]:
        """``v``'s tree parent at round ``r`` (None for heads)."""
        return self.assignment_at(r).parent[v]

    def depth_of(self, v: int, r: int) -> int:
        """``v``'s tree depth at round ``r``."""
        return self.assignment_at(r).depth[v]

    def validate(self) -> None:
        """Validate every phase's assignment against its rounds' graphs."""
        for phase, asg in enumerate(self.assignments):
            snap = self.trace.snapshot(phase * self.params.T)
            asg.validate(snap)


def generate_dhop(params: DHopParams, seed: SeedLike = None) -> DHopScenario:
    """Generate a d-hop scenario; deterministic for a fixed seed."""
    rng = make_rng(seed)
    n, d, L = params.n, params.d, params.L

    heads = sorted(int(v) for v in rng.choice(n, size=params.num_heads, replace=False))
    head_set = set(heads)
    gw_needed = (len(heads) - 1) * (L - 1)
    non_heads = [v for v in range(n) if v not in head_set]
    gateways = non_heads[:gw_needed]
    members = non_heads[gw_needed:]

    backbone, gw_head = _build_backbone(heads, gateways, L)

    # persistent member attachment across phases (parent, head)
    attach: Dict[int, Tuple[int, int]] = {}

    snaps: List[Snapshot] = []
    assignments: List[DHopAssignment] = []

    for phase in range(params.phases):
        head_of: List[int] = [0] * n
        parent: List[Optional[int]] = [None] * n
        depth: List[int] = [0] * n
        roles: List[Role] = [Role.MEMBER] * n

        for h in heads:
            head_of[h] = h
            roles[h] = Role.HEAD
        for g in gateways:
            h = gw_head.get(g)
            if h is None:  # single-head chain: no gateways in use
                h = heads[0]
            head_of[g] = h
            parent[g] = h
            depth[g] = 1
            roles[g] = Role.GATEWAY

        # attachment points per cluster: (node, depth) with depth < d
        points: Dict[int, List[int]] = {h: [h] for h in heads}
        point_depth: Dict[int, int] = {h: 0 for h in heads}

        def _attach(m: int, cluster: int) -> None:
            candidates = [p for p in points[cluster] if point_depth[p] < d]
            p = candidates[int(rng.integers(0, len(candidates)))]
            head_of[m] = cluster
            parent[m] = p
            depth[m] = point_depth[p] + 1
            point_depth[m] = depth[m]
            points[cluster].append(m)

        # keep previous attachments where possible, re-draw on churn
        order = list(members)
        for m in order:
            prev = attach.get(m)
            keep = (
                phase > 0
                and prev is not None
                and rng.random() >= params.reaffiliation_p
            )
            if keep:
                cluster = prev[1]
            else:
                cluster = int(heads[int(rng.integers(0, len(heads)))])
            _attach(m, cluster)
            attach[m] = (parent[m], cluster)  # type: ignore[assignment]

        asg = DHopAssignment(
            d=d,
            head_of=tuple(head_of),
            parent=tuple(parent),
            depth=tuple(depth),
        )
        assignments.append(asg)

        stable_edges = list(backbone)
        stable_edges += [
            (v, parent[v]) for v in range(n) if parent[v] is not None
        ]
        for _ in range(params.T):
            edges = list(stable_edges)
            if params.churn_p > 0:
                edges += list(erdos_renyi(n, params.churn_p, seed=rng).edges())
            snaps.append(
                Snapshot.from_edges(
                    n, edges, roles=roles, head_of=head_of
                )
            )

    scenario = DHopScenario(
        trace=GraphTrace(snapshots=snaps, extend="hold"),
        params=params,
        assignments=assignments,
    )
    scenario.validate()
    return scenario

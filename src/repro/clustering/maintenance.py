"""Hierarchy maintenance over a dynamic graph.

The paper assumes "the existence of such hierarchy" maintained by a
clustering layer; this module is that layer.  Given a flat
:class:`~repro.sim.topology.GraphTrace` (e.g. from the mobility substrate)
it produces a clustered trace — an empirical CTVG — by

1. clustering round 0 from scratch with any base algorithm
   (lowest-ID by default), then
2. *repairing* per round with the Least-Cluster-Change (LCC) policy:

   * an existing head demotes only when it becomes adjacent to a
     lower-id head (it and its members join that head's cluster);
   * a member keeps its head while they stay adjacent; otherwise it joins
     the lowest-id adjacent head, or promotes itself if none is in range;

3. re-selecting gateways each round so heads stay backbone-connected.

The returned :class:`MaintenanceStats` yields the empirical θ, n_m, n_r
and realized L that parameterise the paper's cost model for realistic
workloads.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..sim.topology import GraphTrace, Snapshot
from .gateways import select_gateways
from .hierarchy import ClusterAssignment
from .lowest_id import lowest_id_clustering

__all__ = ["MaintenanceStats", "maintain_clustering"]

#: Election function: either ``fn(snapshot)`` (history-free, e.g.
#: lowest-ID) or ``fn(snapshot, round, trace)`` (history-aware, e.g. the
#: stability-weighted election) — the pipeline dispatches on arity.
ClusterFn = Callable[..., ClusterAssignment]


def _call_base(base: ClusterFn, snap: Snapshot, r: int, trace: GraphTrace) -> ClusterAssignment:
    params = [
        p for p in inspect.signature(base).parameters.values()
        if p.default is inspect.Parameter.empty
        and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    if len(params) >= 3:
        return base(snap, r, trace)
    return base(snap)


@dataclass
class MaintenanceStats:
    """Empirical hierarchy statistics collected during maintenance.

    Attributes
    ----------
    reaffiliations:
        Total member cluster switches (basis of the paper's :math:`n_r`).
    elections:
        Nodes promoted to head after round 0.
    demotions:
        Heads demoted by the LCC rule.
    heads_per_round:
        Head-set size per round.
    members_per_round:
        Plain-member count per round (gateways excluded), averaging to
        :math:`n_m`.
    realized_L:
        Per-round backbone hop bound; ``None`` entries mark rounds whose
        graph could not connect the heads.
    distinct_heads:
        Every node that ever served as head (empirical θ).
    """

    reaffiliations: int = 0
    elections: int = 0
    demotions: int = 0
    heads_per_round: List[int] = field(default_factory=list)
    members_per_round: List[int] = field(default_factory=list)
    realized_L: List[Optional[int]] = field(default_factory=list)
    distinct_heads: set = field(default_factory=set)
    ever_member: set = field(default_factory=set)

    @property
    def theta(self) -> int:
        """Empirical upper bound on head count: distinct heads observed."""
        return len(self.distinct_heads)

    @property
    def mean_members(self) -> float:
        """Empirical :math:`n_m`."""
        if not self.members_per_round:
            return 0.0
        return sum(self.members_per_round) / len(self.members_per_round)

    @property
    def mean_reaffiliations(self) -> float:
        """Empirical :math:`n_r` — re-affiliations per ever-member node."""
        if not self.ever_member:
            return 0.0
        return self.reaffiliations / len(self.ever_member)

    @property
    def max_realized_L(self) -> Optional[int]:
        """Worst per-round backbone hop bound (None if any round failed)."""
        if any(span is None for span in self.realized_L):
            return None
        return max(self.realized_L) if self.realized_L else 0


def _repair(snapshot: Snapshot, prev: ClusterAssignment, stats: MaintenanceStats) -> ClusterAssignment:
    """One round of LCC repair; see module docstring for the rules."""
    n = snapshot.n
    head_of: List[Optional[int]] = list(prev.head_of)

    # 1. LCC demotion: a head adjacent to a lower-id head joins it.
    heads_before = sorted(v for v in range(n) if head_of[v] == v)
    for v in heads_before:
        if head_of[v] != v:
            continue  # already demoted into an earlier head this round
        lower = sorted(u for u in snapshot.adj[v] if u < v and head_of[u] == u)
        if lower:
            head_of[v] = lower[0]
            stats.demotions += 1

    # 2. Member repair: keep the head while adjacent, else rehome/promote.
    for v in range(n):
        h = head_of[v]
        if h == v:
            continue
        if h is not None and head_of[h] == h and h in snapshot.adj[v]:
            continue
        candidates = sorted(u for u in snapshot.adj[v] if head_of[u] == u)
        if candidates:
            head_of[v] = candidates[0]
        else:
            head_of[v] = v
            stats.elections += 1

    return ClusterAssignment(head_of=tuple(head_of))


def maintain_clustering(
    trace: GraphTrace,
    base: ClusterFn = lowest_id_clustering,
    lcc: bool = True,
) -> tuple[GraphTrace, MaintenanceStats]:
    """Cluster a flat trace round-by-round; return (clustered trace, stats).

    Parameters
    ----------
    trace:
        Flat dynamic graph (each round's snapshot without hierarchy).
    base:
        Clustering algorithm for round 0 (and for *every* round when
        ``lcc=False``, i.e. memoryless re-clustering — the high-churn
        baseline for the n_r ablation).
    lcc:
        Repair incrementally with Least-Cluster-Change instead of
        re-clustering from scratch.
    """
    stats = MaintenanceStats()
    snaps: List[Snapshot] = []
    prev: Optional[ClusterAssignment] = None

    for r in range(trace.horizon):
        snap = trace.snapshot(r)
        if prev is None or not lcc:
            assignment = _call_base(base, snap, r, trace)
        else:
            assignment = _repair(snap, prev, stats)

        with_gw, realized = select_gateways(snap, assignment)
        stats.realized_L.append(realized)
        heads = with_gw.heads
        stats.heads_per_round.append(len(heads))
        stats.distinct_heads |= heads
        roles = with_gw.roles()
        plain_members = [v for v in range(snap.n) if with_gw.head_of[v] != v and v not in with_gw.gateways]
        stats.members_per_round.append(len(plain_members))
        stats.ever_member.update(plain_members)

        if prev is not None:
            for v in range(snap.n):
                if (
                    with_gw.head_of[v] != v
                    and prev.head_of[v] is not None
                    and prev.head_of[v] != v
                    and with_gw.head_of[v] != prev.head_of[v]
                ):
                    stats.reaffiliations += 1

        snaps.append(with_gw.annotate(snap))
        prev = assignment

    clustered = GraphTrace(snapshots=snaps, extend=trace.extend)
    clustered.validate_hierarchy()
    return clustered, stats

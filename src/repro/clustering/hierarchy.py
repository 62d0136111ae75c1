"""Cluster-assignment representation shared by all clustering algorithms.

A :class:`ClusterAssignment` is the static outcome of clustering one
graph: who heads a cluster, who belongs where, and which members act as
gateways.  Clustering algorithms produce one per round; the maintenance
pipeline stitches them into a clustered
:class:`~repro.sim.topology.GraphTrace` (i.e. a CTVG).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Optional, Tuple

from ..roles import Role
from ..sim.topology import Snapshot

__all__ = ["ClusterAssignment"]


@dataclass(frozen=True)
class ClusterAssignment:
    """Heads, memberships and gateway flags for one round's graph.

    Attributes
    ----------
    head_of:
        ``head_of[v]`` is ``v``'s cluster id (its head's node id); a head
        maps to itself; ``None`` marks an unaffiliated node (clustering
        algorithms in this library never produce one on a connected graph,
        but maintenance may transiently).
    gateways:
        Subset of non-head nodes flagged as gateways.  Gateways keep their
        cluster affiliation — the flag only changes their role (and hence
        their behaviour in the dissemination algorithms).
    """

    head_of: Tuple[Optional[int], ...]
    gateways: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        heads = self.heads
        for v, h in enumerate(self.head_of):
            if h is not None and h not in heads:
                raise ValueError(f"node {v} affiliated to {h}, which is not a head")
        bad = self.gateways & heads
        if bad:
            raise ValueError(f"heads flagged as gateways: {sorted(bad)}")
        out_of_range = {g for g in self.gateways if not (0 <= g < self.n)}
        if out_of_range:
            raise ValueError(f"gateway ids out of range: {sorted(out_of_range)}")

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.head_of)

    @property
    def heads(self) -> FrozenSet[int]:
        """The head set (nodes affiliated to themselves)."""
        return frozenset(v for v, h in enumerate(self.head_of) if h == v)

    def role(self, v: int) -> Role:
        """Role of ``v`` under this assignment."""
        if self.head_of[v] == v:
            return Role.HEAD
        if v in self.gateways:
            return Role.GATEWAY
        return Role.MEMBER

    def roles(self) -> Tuple[Role, ...]:
        """Per-node role tuple."""
        return tuple(self.role(v) for v in range(self.n))

    def clusters(self) -> Dict[int, FrozenSet[int]]:
        """``{head: member set}`` (members include the head and its gateways)."""
        out: Dict[int, set] = {}
        for v, h in enumerate(self.head_of):
            if h is not None:
                out.setdefault(h, set()).add(v)
        return {h: frozenset(s) for h, s in out.items()}

    # -- derivation ------------------------------------------------------------

    def with_gateways(self, gateways: FrozenSet[int]) -> "ClusterAssignment":
        """Same memberships with a different gateway flag set."""
        return replace(self, gateways=frozenset(gateways))

    def annotate(self, snapshot: Snapshot) -> Snapshot:
        """Attach this assignment's roles/memberships to a flat snapshot."""
        if snapshot.n != self.n:
            raise ValueError(
                f"assignment is for {self.n} nodes, snapshot has {snapshot.n}"
            )
        return Snapshot(adj=snapshot.adj, roles=self.roles(), head_of=self.head_of)

    # -- validation ---------------------------------------------------------------

    def validate(self, snapshot: Snapshot) -> None:
        """Check CTVG structural invariants against a graph.

        Every node must be affiliated, every cluster dominated: affiliated
        non-heads must be adjacent to their head.
        """
        if snapshot.n != self.n:
            raise ValueError("size mismatch between assignment and snapshot")
        for v, h in enumerate(self.head_of):
            if h is None:
                raise ValueError(f"node {v} is unaffiliated")
            if h != v and h not in snapshot.adj[v]:
                raise ValueError(
                    f"node {v} affiliated to head {h} but not adjacent to it"
                )

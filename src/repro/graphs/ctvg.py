"""The Cluster-based Time-Varying Graph (CTVG) formalism.

Definition 1 of the paper extends the TVG
:math:`G = (V, E, \\Gamma, \\rho, \\zeta)` with two maps describing the
cluster hierarchy over time:

* :math:`C : V \\times \\Gamma \\to \\{h, g, m\\}` — each node's status
  (cluster head / gateway / member), and
* :math:`I : V \\times \\Gamma \\to N` — the id of the cluster the node
  belongs to (the head's node id serves as the cluster id).

:class:`CTVG` wraps a clustered :class:`~repro.graphs.trace.GraphTrace`
and exposes these maps plus the derived sets used in Definitions 2–8:
the per-round head set :math:`V_h^i` and per-cluster member sets
:math:`M_k^i`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np

from ..roles import Role
from ..sim.topology import ROLE_CODES
from .trace import GraphTrace
from .tvg import TVG

__all__ = ["CTVG"]

_HEAD, _GATEWAY, _MEMBER = (
    ROLE_CODES[Role.HEAD], ROLE_CODES[Role.GATEWAY], ROLE_CODES[Role.MEMBER]
)


class CTVG(TVG):
    """Formal CTVG view over a clustered trace.

    Raises ``ValueError`` at construction if any recorded snapshot lacks
    hierarchy information or violates the structural invariants (a member
    must be a neighbour of its head; a head's cluster id is itself).
    """

    def __init__(self, trace: GraphTrace, latency: int = 1, validate: bool = True) -> None:
        if not trace.clustered:
            raise ValueError("CTVG requires hierarchy info on every snapshot")
        if validate:
            trace.validate_hierarchy()
        super().__init__(trace, latency=latency)

    # -- the C and I maps ---------------------------------------------------

    def C(self, v: int, t: int) -> Role:
        """Node status map: the role of ``v`` at round ``t``."""
        role = self.trace.snapshot(t).role(v)
        assert role is not None  # guaranteed clustered
        return role

    def I(self, v: int, t: int) -> Optional[int]:
        """Cluster membership map: the cluster id of ``v`` at round ``t``."""
        return self.trace.snapshot(t).head(v)

    # -- derived sets (Section III-C notation) --------------------------------

    def head_set(self, t: int) -> FrozenSet[int]:
        """:math:`V_h^t` — the set of cluster heads in round ``t``."""
        return self.trace.snapshot(t).heads()

    def members(self, cluster: int, t: int) -> FrozenSet[int]:
        """:math:`M_{cluster}^t` — nodes whose ``I`` equals ``cluster``."""
        return self.trace.snapshot(t).cluster_members(cluster)

    def clusters(self, t: int) -> Dict[int, FrozenSet[int]]:
        """All clusters of round ``t`` as ``{head: member set}``."""
        return self.trace.snapshot(t).clusters()

    def _with_role(self, t: int, code: int) -> FrozenSet[int]:
        roles = self.trace.snapshot(t).arrays().roles
        return frozenset(np.flatnonzero(roles == code).tolist())

    def gateways(self, t: int) -> FrozenSet[int]:
        """Nodes with gateway status in round ``t``."""
        return self._with_role(t, _GATEWAY)

    def ordinary_members(self, t: int) -> FrozenSet[int]:
        """Nodes with plain member status (``m``) in round ``t``."""
        return self._with_role(t, _MEMBER)

    # -- hierarchy change tracking --------------------------------------------
    #
    # Whole-trace statistics run on the trace's (rounds, n) stacks of the
    # per-round role-code and head-id arrays (-1 = unaffiliated).

    @staticmethod
    def _joins(heads: np.ndarray) -> np.ndarray:
        """Per node: rounds ``t >= 1`` whose head differs from round
        ``t - 1``'s and is not "unaffiliated"."""
        later = heads[1:]
        return np.count_nonzero((later != heads[:-1]) & (later >= 0), axis=0)

    def head_changes(self, v: int, upto: Optional[int] = None) -> int:
        """Number of re-affiliations node ``v`` performs in the trace.

        Counts rounds ``t >= 1`` where ``I(v, t)`` differs from
        ``I(v, t-1)`` and is not ``None`` (joining a new cluster).  This is
        the per-node quantity whose average over members is the paper's
        :math:`n_r`.
        """
        stop = self.trace.horizon if upto is None else upto
        if stop < 2:
            return 0
        _, heads = self.trace.hierarchy_rows(stop)
        return int(self._joins(heads[:, v:v + 1])[0])

    def mean_reaffiliations(self) -> float:
        """Average re-affiliation count over nodes that were ever plain members.

        The paper's :math:`n_r` (Table 1: "the average number of
        re-affiliations a cluster member conducts").
        """
        roles, heads = self.trace.hierarchy_rows()
        member_ever = (roles == _MEMBER).any(axis=0)
        members = int(np.count_nonzero(member_ever))
        if not members:
            return 0.0
        return int(self._joins(heads)[member_ever].sum()) / members

    def mean_member_count(self) -> float:
        """Average number of plain-member nodes per round (the paper's :math:`n_m`)."""
        roles, _ = self.trace.hierarchy_rows()
        return int(np.count_nonzero(roles == _MEMBER)) / roles.shape[0]

    def distinct_heads(self) -> FrozenSet[int]:
        """All nodes that ever act as head — an empirical lower bound on θ."""
        roles, _ = self.trace.hierarchy_rows()
        return frozenset(np.flatnonzero((roles == _HEAD).any(axis=0)).tolist())

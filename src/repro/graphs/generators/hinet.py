"""Generator of verified (T, L)-HiNet traces.

The paper assumes a clustering layer maintains the hierarchy and analyses
algorithms on any dynamic network satisfying Definition 8.  This generator
*constructs* such networks directly, so that benchmarks run on instances
whose model membership is guaranteed (and re-checked by
:func:`repro.graphs.properties.is_hinet` in the tests):

* Time is divided into phases of ``T`` rounds.  Within a phase the
  hierarchy (head set, memberships, roles) and a *stable backbone* are
  frozen; everything else may churn per round.
* The backbone chains the active heads through ``L - 1`` gateway nodes per
  link, so consecutive heads sit at hop distance exactly ``L`` — realising
  T-interval L-hop cluster head connectivity with the backbone as the
  witness Υ.
* Every member is attached by a direct edge to its head (the CTVG
  structural invariant), so each round's graph is connected — the trace is
  also 1-interval connected, as Algorithm 2's Theorem 2 requires.
* At phase boundaries members re-affiliate with probability
  ``reaffiliation_p`` and ``head_churn`` active heads are swapped against
  the inactive part of the θ-pool — the knobs behind the paper's
  :math:`n_r` and θ parameters.

Setting ``T = 1`` yields (1, L)-HiNet dynamics: the hierarchy may change
every round.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...roles import Role
from ...sim.rng import SeedLike, make_rng
from ...sim.topology import ROLE_CODES, Snapshot, csr_rounds, head_adjacency
from ..trace import GraphTrace

__all__ = ["HiNetParams", "HiNetScenario", "generate_hinet"]

_HEAD, _GATEWAY, _MEMBER = (
    ROLE_CODES[Role.HEAD], ROLE_CODES[Role.GATEWAY], ROLE_CODES[Role.MEMBER]
)


@dataclass(frozen=True)
class HiNetParams:
    """Knobs of the (T, L)-HiNet generator.

    Attributes
    ----------
    n:
        Total node count (the paper's :math:`n_0`).
    theta:
        Size of the potential-head pool (the paper's θ — the upper bound on
        nodes that can ever be cluster heads).
    num_heads:
        Active heads per phase (≤ theta).
    T:
        Phase length in rounds; the stability interval of Definition 8.
    phases:
        Number of phases to generate (trace horizon = ``T * phases``).
    L:
        Hop distance between consecutive backbone heads (1, 2 or 3 — the
        paper notes L ≤ 3 for 1-hop clusters).
    reaffiliation_p:
        Per member, per phase boundary, probability of switching to a
        uniformly random other active head.
    head_churn:
        Number of active heads swapped against the inactive pool at each
        phase boundary (0 keeps the head set ∞-interval stable — the
        Remark 1 regime).
    churn_p:
        Density of per-round noise edges (the "dynamic" in dynamic
        network); they never remove required edges, so all properties are
        preserved.
    rotate_gateways:
        Draw the gateway nodes uniformly from the non-heads at every
        phase instead of always using the lowest ids.  Without this, the
        same low-id nodes carry backbone duty forever — the load-balance
        ablation's control knob (head rotation alone cannot lower the
        peak drain while gateways are pinned).
    """

    n: int
    theta: int
    num_heads: int
    T: int
    phases: int
    L: int = 2
    reaffiliation_p: float = 0.1
    head_churn: int = 0
    churn_p: float = 0.02
    rotate_gateways: bool = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least two nodes, got n={self.n}")
        if not (1 <= self.num_heads <= self.theta <= self.n):
            raise ValueError(
                f"need 1 <= num_heads ({self.num_heads}) <= theta "
                f"({self.theta}) <= n ({self.n})"
            )
        if self.T < 1 or self.phases < 1:
            raise ValueError(
                f"T and phases must be >= 1, got T={self.T}, phases={self.phases}"
            )
        if self.L not in (1, 2, 3):
            raise ValueError(f"L must be 1, 2 or 3, got {self.L}")
        if not (0.0 <= self.reaffiliation_p <= 1.0):
            raise ValueError(
                f"reaffiliation_p must be a probability, got {self.reaffiliation_p}"
            )
        if not (0.0 <= self.churn_p <= 1.0):
            raise ValueError(f"churn_p must be a probability, got {self.churn_p}")
        if self.head_churn < 0:
            raise ValueError(f"head_churn must be >= 0, got {self.head_churn}")
        gateways_needed = (self.num_heads - 1) * (self.L - 1)
        if self.num_heads + gateways_needed > self.n:
            raise ValueError(
                f"n={self.n} too small for {self.num_heads} heads with "
                f"L={self.L} (needs {gateways_needed} gateways)"
            )

    @property
    def rounds(self) -> int:
        """Trace horizon."""
        return self.T * self.phases


@dataclass
class HiNetScenario:
    """A generated (T, L)-HiNet: the trace plus its provenance and statistics.

    ``reaffiliations`` counts actual cluster switches performed by nodes
    while they were plain members — the empirical basis of the paper's
    :math:`n_r`.
    """

    trace: GraphTrace
    params: HiNetParams
    pool: Tuple[int, ...]
    reaffiliations: int = 0
    member_rounds: int = 0

    @property
    def n(self) -> int:
        return self.params.n

    def snapshot(self, r: int) -> Snapshot:
        return self.trace.snapshot(r)

    @property
    def mean_members(self) -> float:
        """Empirical :math:`n_m` — average plain-member count per round."""
        return self.member_rounds / self.trace.horizon

    def empirical_nr(self) -> float:
        """Empirical :math:`n_r` — mean re-affiliations per ever-member node."""
        from ..ctvg import CTVG

        return CTVG(self.trace, validate=False).mean_reaffiliations()


def _build_backbone(
    heads: Sequence[int], gateways: Sequence[int], L: int
) -> Tuple[List[Tuple[int, int]], Dict[int, int]]:
    """Chain ``heads`` with ``L - 1`` gateways per link.

    Returns the backbone edge list and the affiliation of each gateway
    (first gateway of a link joins the left head, second the right head —
    both are adjacent to their head, per the CTVG invariant).
    """
    edges: List[Tuple[int, int]] = []
    gw_head: Dict[int, int] = {}
    per_link = L - 1
    gi = 0
    for i in range(len(heads) - 1):
        left, right = heads[i], heads[i + 1]
        if per_link == 0:
            edges.append((left, right))
        elif per_link == 1:
            g = gateways[gi]
            gi += 1
            edges.extend([(left, g), (g, right)])
            gw_head[g] = left
        else:  # per_link == 2
            g1, g2 = gateways[gi], gateways[gi + 1]
            gi += 2
            edges.extend([(left, g1), (g1, g2), (g2, right)])
            gw_head[g1] = left
            gw_head[g2] = right
    return edges, gw_head


def generate_hinet(params: HiNetParams, seed: SeedLike = None) -> HiNetScenario:
    """Generate one verified (T, L)-HiNet trace; see the module docstring.

    Determinism: the same ``params`` and integer ``seed`` always produce
    the identical trace.  Rounds are emitted as CSR arrays straight from
    the stable edges plus the numpy G(n, p) churn (:func:`csr_rounds`);
    the rounds of one phase share its ``roles``/``head_of``/
    ``head_adjacent`` arrays.
    """
    rng = make_rng(seed)
    n, L = params.n, params.L
    pool = tuple(sorted(int(v) for v in rng.choice(n, size=params.theta, replace=False)))

    active: List[int] = sorted(
        int(v) for v in rng.choice(pool, size=params.num_heads, replace=False)
    )
    affiliation: Dict[int, int] = {}  # persists across phases for stickiness
    round_edges: List[np.ndarray] = []
    round_hierarchy: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    reaffiliations = 0
    member_rounds = 0
    # vertex pairs u < v of the per-round G(n, churn_p) churn
    churn = params.churn_p > 0 and n >= 2
    pairs = np.column_stack(np.triu_indices(n, k=1))

    for phase in range(params.phases):
        if phase > 0 and params.head_churn > 0:
            inactive = [h for h in pool if h not in active]
            swaps = min(params.head_churn, len(inactive), len(active))
            if swaps > 0:
                out_idx = rng.choice(len(active), size=swaps, replace=False)
                in_heads = rng.choice(inactive, size=swaps, replace=False)
                for k_idx, h_new in zip(sorted(out_idx, reverse=True), in_heads):
                    del active[int(k_idx)]
                    active.append(int(h_new))
                active.sort()

        head_set = set(active)
        gw_needed = (len(active) - 1) * (L - 1)
        non_heads = [v for v in range(n) if v not in head_set]
        if params.rotate_gateways and gw_needed > 0:
            picked = rng.choice(len(non_heads), size=gw_needed, replace=False)
            picked_set = {int(i) for i in picked}
            gateways = [non_heads[i] for i in sorted(picked_set)]
            members = [
                v for i, v in enumerate(non_heads) if i not in picked_set
            ]
        else:
            gateways = non_heads[:gw_needed]
            members = non_heads[gw_needed:]

        backbone, gw_head = _build_backbone(active, gateways, L)

        # member (re-)affiliation with stickiness
        prev_affiliation = dict(affiliation)
        affiliation = {}
        for m in members:
            prev = prev_affiliation.get(m)
            if prev in head_set and rng.random() >= params.reaffiliation_p:
                affiliation[m] = prev
                continue
            if len(active) > 1 and prev in head_set:
                # uniform over the other active heads
                i = int(rng.integers(0, len(active) - 1))
                new_head = active[i + (i >= bisect_left(active, prev))]
            else:
                new_head = active[int(rng.integers(0, len(active)))]
            affiliation[m] = new_head
            if prev is not None and new_head != prev:
                reaffiliations += 1

        roles = np.full(n, _MEMBER, dtype=np.int8)
        head_of = np.full(n, -1, dtype=np.int64)
        roles[active] = _HEAD
        head_of[active] = active
        roles[list(gw_head)] = _GATEWAY
        head_of[list(gw_head)] = list(gw_head.values())
        head_of[members] = [affiliation[m] for m in members]
        # any unused gateway-pool node without affiliation joins a random head
        for v in np.flatnonzero(head_of < 0).tolist():
            head_of[v] = active[int(rng.integers(0, len(active)))]

        # stable edges: the backbone plus every plain member to its head
        plain = np.flatnonzero(roles == _MEMBER)
        stable_edges = np.concatenate([
            np.array(backbone, dtype=np.int64).reshape(-1, 2),
            np.column_stack((plain, head_of[plain])),
        ])
        hierarchy = (roles, head_of, head_adjacency(stable_edges, head_of))
        for shared in hierarchy:  # every round of the phase holds them
            shared.flags.writeable = False

        for _ in range(params.T):
            if churn:
                kept = np.flatnonzero(rng.random(len(pairs)) < params.churn_p)
                round_edges.append(np.concatenate([stable_edges, pairs[kept]]))
            else:
                round_edges.append(stable_edges)
            round_hierarchy.append(hierarchy)
            member_rounds += len(plain)

    trace = GraphTrace(
        [
            replace(arrs, roles=roles, head_of=head_of, head_adjacent=head_adjacent)
            for arrs, (roles, head_of, head_adjacent) in zip(
                csr_rounds(n, round_edges), round_hierarchy
            )
        ],
        extend="hold",
    )
    trace.validate_hierarchy()
    return HiNetScenario(
        trace=trace,
        params=params,
        pool=pool,
        reaffiliations=reaffiliations,
        member_rounds=member_rounds,
    )

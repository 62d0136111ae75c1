"""Adaptive adversaries: topology chosen *after* seeing node knowledge.

The dynamic-network lower-bound literature (KLO §1.3 and follow-ups)
distinguishes the *oblivious* adversary — the whole edge schedule fixed
in advance, which every :class:`~repro.sim.topology.GraphTrace` models —
from the *adaptive* adversary that inspects protocol state before
committing to round r's graph.  Lower bounds for token dissemination are
proved against the adaptive kind.

The engine supports adaptivity through a second protocol hook: if the
network object exposes ``adaptive_snapshot(r, knowledge)``, the engine
calls it each round with every node's current token set instead of
``snapshot(r)``.  Note the information model: the adversary sees state,
the *nodes* don't see the adversary — matching the standard model.

Three concrete adversaries:

* :class:`KnowledgeClusteringAdversary` — each round builds a Hamiltonian
  path that chains nodes *with identical token sets* consecutively, so
  information can only cross at the few junctions between knowledge
  classes.  This is the classic slow-progress construction: per round the
  number of new (node, token) pairs is bounded by the number of class
  junctions, forcing Θ(n) rounds per token against flooding.
* :class:`QuarantineAdversary` — pushes the best-informed nodes to the
  far end of a path behind the least-informed ones, maximising the hop
  distance between knowledge and ignorance.
* :class:`HaeuplerKuhnAdversary` — the token-aware greedy chain from the
  Haeupler–Kuhn lower-bound construction ("Lower Bounds on Information
  Dissemination in Dynamic Networks"): each round orders the path so
  every consecutive pair has *minimal symmetric difference* of token
  sets, bounding the useful information crossing any edge and forcing
  near-worst-case dissemination time against every one-token-per-round
  protocol.

:func:`materialize_lower_bound_trace` freezes an adaptive adversary into
an oblivious :class:`~repro.sim.topology.GraphTrace` by playing it
against a flooding-knowledge oracle (the fastest any absorb-only
protocol could possibly learn) — the result is a static, certifiable
scenario every engine tier can run.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional

from ..sim.rng import SeedLike, make_rng
from ..sim.topology import GraphTrace, Snapshot

__all__ = [
    "HaeuplerKuhnAdversary",
    "KnowledgeClusteringAdversary",
    "QuarantineAdversary",
    "materialize_lower_bound_trace",
]

Knowledge = Mapping[int, FrozenSet[int]]


class _AdaptiveBase:
    """Common plumbing: size, 1-interval paths, deterministic tie-breaks."""

    def __init__(self, n: int, seed: SeedLike = None) -> None:
        if n < 2:
            raise ValueError(f"need at least two nodes, got {n}")
        self.n = n
        self._rng = make_rng(seed)
        self.rounds_served = 0

    # --- DynamicNetwork protocol ------------------------------------------

    def snapshot(self, r: int) -> Snapshot:
        """Oblivious access is not meaningful for an adaptive adversary."""
        raise RuntimeError(
            "adaptive adversary requires the engine's adaptive_snapshot hook"
        )

    def adaptive_snapshot(self, r: int, knowledge: Knowledge) -> Snapshot:
        """Commit to round ``r``'s graph given current node knowledge."""
        order = self._order(r, knowledge)
        self.rounds_served += 1
        edges = [(order[i], order[i + 1]) for i in range(self.n - 1)]
        return Snapshot.from_edges(self.n, edges)

    # --- strategy ----------------------------------------------------------

    def _order(self, r: int, knowledge: Knowledge) -> List[int]:
        raise NotImplementedError


class KnowledgeClusteringAdversary(_AdaptiveBase):
    """Chain equal-knowledge nodes consecutively (see module docstring)."""

    def _order(self, r: int, knowledge: Knowledge) -> List[int]:
        groups: Dict[FrozenSet[int], List[int]] = {}
        for v in range(self.n):
            groups.setdefault(frozenset(knowledge.get(v, frozenset())), []).append(v)
        # large classes first: junctions sit between the biggest blocks,
        # shuffled within a class so no node id is structurally favoured
        ordered_classes = sorted(
            groups.values(), key=lambda g: (-len(g), min(g))
        )
        order: List[int] = []
        for cls in ordered_classes:
            cls = list(cls)
            self._rng.shuffle(cls)
            order.extend(int(v) for v in cls)
        return order


class QuarantineAdversary(_AdaptiveBase):
    """Path sorted by ascending knowledge; the informed end is maximally far.

    Against single-token flooding from one source this recreates the
    rotating-star effect by distance: the token must traverse the entire
    ignorance gradient, one hop per round.
    """

    def _order(self, r: int, knowledge: Knowledge) -> List[int]:
        return sorted(
            range(self.n),
            key=lambda v: (len(knowledge.get(v, frozenset())), v),
        )


class HaeuplerKuhnAdversary(_AdaptiveBase):
    """Token-aware greedy chain: consecutive nodes know almost the same.

    The Haeupler–Kuhn lower bound hinges on the adversary re-wiring the
    (always-connected) graph each round so that the tokens a node could
    *usefully* receive from its neighbours are as few as possible.  The
    greedy realisation here starts from a best-informed node and extends
    a Hamiltonian path by repeatedly appending the remaining node whose
    token set has the *smallest symmetric difference* with the chain's
    current endpoint (ties to the smallest id — fully deterministic, no
    RNG draw).  Each edge then carries minimal marginal novelty, so
    per-round progress in new (node, token) pairs is throttled to the
    knowledge gradient along the chain.
    """

    def _order(self, r: int, knowledge: Knowledge) -> List[int]:
        sets: Dict[int, FrozenSet[int]] = {
            v: frozenset(knowledge.get(v, frozenset())) for v in range(self.n)
        }
        remaining = set(range(self.n))
        start = min(remaining, key=lambda v: (-len(sets[v]), v))
        order = [start]
        remaining.discard(start)
        while remaining:
            last = sets[order[-1]]
            nxt = min(remaining, key=lambda v: (len(last ^ sets[v]), v))
            order.append(nxt)
            remaining.discard(nxt)
        return order


def materialize_lower_bound_trace(
    n: int,
    initial: Mapping[int, FrozenSet[int]],
    rounds: int,
    adversary: Optional[_AdaptiveBase] = None,
    seed: SeedLike = 0,
) -> GraphTrace:
    """Freeze an adaptive adversary into an oblivious, certifiable trace.

    Plays ``adversary`` (default: a fresh :class:`HaeuplerKuhnAdversary`)
    for ``rounds`` rounds against a *flooding-knowledge oracle* — after
    each round every node's assumed knowledge absorbs all of its
    neighbours' (the fastest any absorb-only protocol could learn), which
    is exactly the state the adaptive adversary would have reacted to in
    the worst case.  The committed snapshots form a static
    :class:`~repro.sim.topology.GraphTrace` that any engine tier can run
    and :func:`~repro.graphs.properties.max_interval_connectivity` can
    certify without the adaptive hook.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    adv = adversary if adversary is not None else HaeuplerKuhnAdversary(n, seed=seed)
    if adv.n != n:
        raise ValueError(f"adversary built for n={adv.n}, trace wants n={n}")
    knowledge: Dict[int, FrozenSet[int]] = {
        v: frozenset(initial.get(v, frozenset())) for v in range(n)
    }
    snaps: List[Snapshot] = []
    for r in range(rounds):
        snap = adv.adaptive_snapshot(r, knowledge)
        snaps.append(snap)
        updated: Dict[int, FrozenSet[int]] = {}
        for v in range(n):
            acc = set(knowledge[v])
            for u in snap.adj[v]:
                acc |= knowledge[u]
            updated[v] = frozenset(acc)
        knowledge = updated
    return GraphTrace(snapshots=snaps)

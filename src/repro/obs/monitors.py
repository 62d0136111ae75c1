"""Runtime invariant monitors: theorem assumptions checked round-by-round.

The theorems behind the repo's "guaranteed" algorithms are conditional —
Theorem 1 holds *because* every stable head learns ≥ α fresh tokens per
phase *because* the trace really is a (T, L)-HiNet.  A run on a scenario
that silently violates those assumptions does not fail; it just produces
a wrong (incomplete) answer.  Monitors watch a live run and turn broken
assumptions into structured :class:`Violation` diagnostics with enough
round/phase/node context to explain *where* the argument first cracked.

A :class:`Monitor` receives one :class:`RoundView` per executed round —
built identically by both engines (the fast path converts its bitset
popcounts to the same plain-int lists), so the violation stream joins the
fastpath⇄reference equivalence guarantee — and may emit more violations
in :meth:`Monitor.finish` once the run's outcome is known.

Built-in monitors (assembled per algorithm by :func:`default_monitors`):

* :class:`CoverageMonotonicityMonitor` — global (node, token) coverage
  never decreases (token-dissemination state is absorb-only);
* :class:`HeadProgressMonitor` — Theorem 1's per-phase progress: every
  head that stays head through a full phase either completes or gains at
  least ``min(α, k − held)`` fresh tokens that phase;
* :class:`BudgetMonitor` — a guaranteed algorithm finishes inside its
  :class:`~repro.registry.RunPlan` round budget;
* :class:`StabilityMonitor` — the declared (T, L) model properties
  actually persist: hierarchy constant per T-block, members adjacent to
  their heads, and each block's head backbone connected within L hops;
* :class:`EnvelopeMonitor` — the run's cumulative transmission/token
  counters stay inside the analytical envelope
  :func:`repro.analysis.predict` evaluated for this (scenario, plan)
  pair, checked live every round (the counters are monotone, so any
  mid-run excursion already refutes the end-of-run bound).

Surface: ``repro run --monitor``, ``execute(..., monitor=True)``, and the
nightly equivalence workflow (``REPRO_EQUIV_MONITORS=1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "BudgetMonitor",
    "CoverageMonotonicityMonitor",
    "EnvelopeMonitor",
    "HeadProgressMonitor",
    "Monitor",
    "RoundView",
    "StabilityMonitor",
    "Violation",
    "default_monitors",
]


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach.

    ``round`` is the round at which the breach was observed (−1 for
    end-of-run checks); ``context`` carries the monitor's structured
    diagnosis (phase index, offending nodes, expected vs. observed …).
    """

    monitor: str
    round: int
    message: str
    context: Mapping[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        where = "end of run" if self.round < 0 else f"round {self.round}"
        return f"[{self.monitor}] {where}: {self.message}"


class RoundView:
    """What a monitor may inspect after one executed round.

    Both engines construct identical views: the topology snapshot the
    round ran on, end-of-round coverage / completion counters, and the
    per-node token counts (plain ints, so fastpath bitset popcounts and
    reference ``len(TA)`` compare equal).

    When the run has a :class:`~repro.sim.linkmodel.LinkModel` attached,
    ``faults`` is a dict describing this round's fault activity —
    ``{"crashed": (node ids…), "crash_tokens": int, "lost": int}`` — so
    monitors can *diagnose* fault-induced anomalies instead of flagging
    them as algorithm bugs.  ``None`` on benign runs.
    """

    __slots__ = ("round_index", "snap", "coverage", "nodes_complete",
                 "per_node", "n", "k", "faults", "tokens_sent",
                 "messages_sent")

    def __init__(self, round_index: int, snap, coverage: int,
                 nodes_complete: int, per_node: Sequence[int],
                 n: int, k: int, faults: Optional[Mapping[str, object]] = None,
                 tokens_sent: Optional[int] = None,
                 messages_sent: Optional[int] = None,
                 ) -> None:
        self.round_index = round_index
        self.snap = snap
        self.coverage = coverage
        self.nodes_complete = nodes_complete
        self.per_node = per_node
        self.n = n
        self.k = k
        self.faults = faults
        # Cumulative run counters at end of round (None when the engine
        # does not surface them — the envelope monitor then stays idle).
        self.tokens_sent = tokens_sent
        self.messages_sent = messages_sent


class Monitor:
    """Base class: collect :class:`Violation` objects over a run."""

    name = "monitor"

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def observe(self, view: RoundView) -> None:
        """Inspect one executed round."""
        raise NotImplementedError

    def finish(self, rounds: int, complete: bool) -> None:
        """Run ended after ``rounds`` rounds with final completeness."""

    def emit(self, round_index: int, message: str, **context: object) -> None:
        self.violations.append(
            Violation(monitor=self.name, round=round_index, message=message,
                      context=context)
        )


class CoverageMonotonicityMonitor(Monitor):
    """Coverage is non-decreasing: dissemination state is absorb-only.

    Under crash-stop churn a coverage drop is *expected* — a crashed
    node's tokens leave the count.  When the round's
    :attr:`RoundView.faults` shows crashes that account for the whole
    drop, the monitor stays silent; a drop that exceeds what the crashes
    wiped is still flagged, with the churn contribution in the diagnosis.
    """

    name = "coverage-monotonicity"

    def __init__(self) -> None:
        super().__init__()
        self._prev: Optional[int] = None

    def observe(self, view: RoundView) -> None:
        if self._prev is not None and view.coverage < self._prev:
            drop = self._prev - view.coverage
            faults = view.faults or {}
            crashed = tuple(faults.get("crashed", ()))
            crash_tokens = int(faults.get("crash_tokens", 0))
            if crashed and drop <= crash_tokens:
                pass  # fully explained by churn: crashed nodes' tokens left
            elif crashed:
                self.emit(
                    view.round_index,
                    f"coverage dropped {self._prev} -> {view.coverage}; "
                    f"crashes wiped only {crash_tokens} of the {drop} "
                    f"missing (node, token) pairs",
                    previous=self._prev, coverage=view.coverage,
                    crashed=crashed, crash_tokens=crash_tokens,
                )
            else:
                self.emit(
                    view.round_index,
                    f"coverage dropped {self._prev} -> {view.coverage}",
                    previous=self._prev, coverage=view.coverage,
                )
        self._prev = view.coverage


class HeadProgressMonitor(Monitor):
    """Theorem 1's per-phase progress argument, checked per phase.

    At the end of every *full* phase of ``T`` rounds, each node that was
    a cluster head in every round of the phase must have gained at least
    ``min(α, k − held_at_phase_start)`` tokens.  This is Lemma-level
    machinery behind the ``⌈θ/α⌉ + 1`` bound: a violation means the
    backbone failed to feed some stable head fast enough — the bound no
    longer follows.
    """

    name = "head-progress"

    def __init__(self, T: int, alpha: int) -> None:
        super().__init__()
        if T < 1 or alpha < 1:
            raise ValueError(f"T and alpha must be >= 1, got T={T}, alpha={alpha}")
        self.T = T
        self.alpha = alpha
        self._stable: Optional[frozenset] = None
        self._start_counts: Dict[int, int] = {}

    def observe(self, view: RoundView) -> None:
        r = view.round_index
        heads = view.snap.heads() if view.snap.clustered else frozenset()
        if r % self.T == 0:
            self._stable = heads
            self._start_counts = {v: view.per_node[v] for v in heads}
        elif self._stable is not None:
            self._stable = self._stable & heads
        if r % self.T == self.T - 1 and self._stable is not None:
            phase = r // self.T
            for v in sorted(self._stable):
                start = self._start_counts.get(v, 0)
                need = min(self.alpha, view.k - start)
                gained = view.per_node[v] - start
                if gained < need:
                    self.emit(
                        r,
                        f"stable head {v} gained {gained} < {need} tokens "
                        f"in phase {phase}",
                        head=v, phase=phase, start=start,
                        end=view.per_node[v], needed=need, alpha=self.alpha,
                    )
            self._stable = None


class BudgetMonitor(Monitor):
    """A guaranteed algorithm must finish within its planned round budget."""

    name = "round-budget"

    def __init__(self, budget: int) -> None:
        super().__init__()
        self.budget = budget

    def observe(self, view: RoundView) -> None:
        pass

    def finish(self, rounds: int, complete: bool) -> None:
        if rounds > self.budget:
            self.emit(-1, f"ran {rounds} rounds, over the {self.budget}-round budget",
                      rounds=rounds, budget=self.budget)
        elif not complete and rounds >= self.budget:
            self.emit(
                -1,
                f"incomplete after the full {self.budget}-round budget "
                "(guarantee violated — check the model assumptions)",
                rounds=rounds, budget=self.budget,
            )


class EnvelopeMonitor(Monitor):
    """The measured trajectory stays inside the analytical envelope.

    Bounds come from :func:`repro.analysis.predict` evaluated on the
    run's own (scenario, plan) pair — Table 2's claims turned into live
    assertions.  Because ``rounds``/``messages_sent``/``tokens_sent``
    are all monotone over a run, the end-of-run upper bound is a valid
    check against the cumulative counters at *every* round: the first
    excursion is flagged (once per metric) with the measured value and
    the violated bound in the diagnosis.

    ``finish`` additionally flags a guaranteed algorithm that was still
    incomplete when its theorem-bound budget elapsed — the regime where
    Table 2's round count no longer explains the run.
    """

    name = "analytical-envelope"

    def __init__(self, rounds_bound: int,
                 messages_bound: Optional[int] = None,
                 tokens_bound: Optional[int] = None,
                 guaranteed: bool = False) -> None:
        super().__init__()
        if rounds_bound < 1:
            raise ValueError(f"rounds_bound must be >= 1, got {rounds_bound}")
        self.rounds_bound = rounds_bound
        self.messages_bound = messages_bound
        self.tokens_bound = tokens_bound
        self.guaranteed = guaranteed
        self._flagged: set = set()

    def _check(self, view: RoundView, metric: str, measured: Optional[int],
               bound: Optional[int]) -> None:
        if bound is None or measured is None or metric in self._flagged:
            return
        if measured > bound:
            self._flagged.add(metric)
            self.emit(
                view.round_index,
                f"cumulative {metric} {measured} exceeded the analytical "
                f"bound {bound}",
                metric=metric, measured=measured, bound=bound,
            )

    def observe(self, view: RoundView) -> None:
        self._check(view, "rounds", view.round_index + 1, self.rounds_bound)
        self._check(view, "messages", view.messages_sent, self.messages_bound)
        self._check(view, "tokens", view.tokens_sent, self.tokens_bound)

    def finish(self, rounds: int, complete: bool) -> None:
        if rounds > self.rounds_bound and "rounds" not in self._flagged:
            self._flagged.add("rounds")
            self.emit(-1, f"ran {rounds} rounds, over the analytical bound "
                      f"{self.rounds_bound}",
                      metric="rounds", measured=rounds,
                      bound=self.rounds_bound)
        if self.guaranteed and not complete and rounds >= self.rounds_bound:
            self.emit(
                -1,
                f"incomplete after the analytical {self.rounds_bound}-round "
                "envelope (theorem bound does not explain this run)",
                metric="completion", measured=rounds,
                bound=self.rounds_bound,
            )


class StabilityMonitor(Monitor):
    """The declared (T, L) stability properties, verified as the run unfolds.

    Per round: the hierarchy (roles + affiliations) must match the start
    of its T-block (Definition 4) and every affiliated member must be
    adjacent to its head (the CTVG invariant the unicast upload relies
    on).  Per completed T-block: the block must admit a stable connected
    head backbone with hop bound ≤ L (Definitions 5–7), checked with the
    same :mod:`repro.graphs.properties` machinery the offline verifiers
    use.
    """

    name = "stability"

    def __init__(self, T: int, L: int, member_adjacency: bool = True) -> None:
        super().__init__()
        if T < 1 or L < 0:
            raise ValueError(f"need T >= 1 and L >= 0, got T={T}, L={L}")
        self.T = T
        self.L = L
        # The d-hop extension deliberately places members up to d hops
        # from their head, so adjacency is only an invariant for d = 1.
        self.member_adjacency = member_adjacency
        self._window: List[object] = []
        self._window_key = None
        self._hierarchy_broken = False
        self._adjacency_broken = False

    @staticmethod
    def _hierarchy_key(snap):
        if not snap.clustered:
            return None
        arrs = snap.arrays()
        return (arrs.roles.tobytes(), arrs.head_of.tobytes())

    def observe(self, view: RoundView) -> None:
        snap = view.snap
        r = view.round_index
        if r % self.T == 0:
            self._window = []
            self._window_key = self._hierarchy_key(snap)
            self._hierarchy_broken = False
            self._adjacency_broken = False
        self._window.append(snap)
        key = self._hierarchy_key(snap)
        if key != self._window_key and not self._hierarchy_broken:
            self._hierarchy_broken = True  # one diagnostic per block
            self.emit(
                r,
                f"hierarchy changed mid-phase {r // self.T} "
                f"(T={self.T}-stability violated)",
                phase=r // self.T, T=self.T,
            )
        if snap.clustered and self.member_adjacency and not self._adjacency_broken:
            # the rule Snapshot.validate_hierarchy applies to members
            arrs = snap.arrays()
            head_of = arrs.head_of
            bad = np.flatnonzero(
                (head_of >= 0) & (head_of != np.arange(snap.n)) & ~arrs.head_adjacent
            ).tolist()
            if bad:
                self._adjacency_broken = True  # one diagnostic per block
                self.emit(
                    r,
                    f"{len(bad)} member(s) not adjacent to their head "
                    f"(first: node {bad[0]})",
                    nodes=tuple(bad[:8]), phase=r // self.T,
                )
        if len(self._window) == self.T:
            self._check_backbone(r)

    def _check_backbone(self, end_round: int) -> None:
        first = self._window[0]
        if not first.clustered:
            return
        from ..graphs.properties import realized_hop_bound
        from ..graphs.trace import GraphTrace

        phase = end_round // self.T
        window = GraphTrace(snapshots=list(self._window))
        hop = realized_hop_bound(window, len(self._window))
        if hop is None:
            self.emit(
                end_round,
                f"no stable connected head backbone in phase {phase} "
                "(Definition 5 violated)",
                phase=phase, T=self.T,
            )
            return
        if hop > self.L:
            self.emit(
                end_round,
                f"head backbone hop bound {hop} exceeds L={self.L} "
                f"in phase {phase} (Definition 7 violated)",
                phase=phase, hop_bound=hop, L=self.L,
            )


def default_monitors(spec=None, plan=None, scenario=None) -> List[Monitor]:
    """Assemble the monitors that apply to one planned execution.

    Coverage monotonicity always applies; the budget monitor applies to
    ``guarantee="guaranteed"`` specs; head progress applies when the plan
    declares a phase structure (``phase_length`` + ``progress_alpha``);
    stability applies when the scenario is clustered and declares (T, L);
    the analytical envelope applies on benign scenarios whose spec has a
    registered :class:`~repro.analysis.CostEnvelope` that the scenario
    can fully bind (fault-family runs are legitimately outside Table 2).
    """
    monitors: List[Monitor] = [CoverageMonotonicityMonitor()]
    if (spec is not None and plan is not None and scenario is not None
            and getattr(scenario, "family", "benign") == "benign"):
        try:
            from ..analysis import predict
            pred = predict(spec, scenario, plan=plan)
        except Exception:
            pred = None  # no envelope / unbound symbols / sympy absent
        if pred is not None:
            monitors.append(
                EnvelopeMonitor(
                    rounds_bound=pred.rounds,
                    messages_bound=pred.messages,
                    tokens_bound=pred.tokens,
                    guaranteed=spec.guarantee == "guaranteed",
                )
            )
    if plan is not None and plan.phase_length and plan.progress_alpha:
        monitors.append(HeadProgressMonitor(plan.phase_length, plan.progress_alpha))
    if spec is not None and plan is not None and spec.guarantee == "guaranteed":
        monitors.append(BudgetMonitor(plan.max_rounds))
    if scenario is not None:
        params = scenario.params
        if "T" in params and "L" in params and scenario.trace.snapshot(0).clustered:
            monitors.append(
                StabilityMonitor(
                    int(params["T"]),
                    int(params["L"]),
                    member_adjacency=int(params.get("d", 1)) <= 1,
                )
            )
    return monitors

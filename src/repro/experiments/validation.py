"""Empirical validation of the paper's lemmas and theorems.

The paper's correctness argument rests on Lemma 2 — the per-phase
progress guarantee — and the theorem bounds built on it.  These
validators *measure* the claimed quantities on instrumented runs, so the
theory can be checked against the implementation (and, since the paper's
proofs are informal in places, the implementation against the theory):

* :func:`check_lemma2` — on each phase, for every token known to someone
  at phase start, count the cluster heads that newly learn it by phase
  end and compare with the claimed ``⌊(T−k)/L⌋`` (saturating when fewer
  heads remain ignorant).
* :func:`check_theorem1` — completion within ``(⌈θ/α⌉+1)`` phases.
* :func:`check_theorem2` — Algorithm 2 completion within ``n−1`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.algorithm1 import make_algorithm1_factory
from ..core.bounds import algorithm1_phases, algorithm2_rounds_1interval
from ..sim.engine import SynchronousEngine
from .scenarios import Scenario

__all__ = [
    "Lemma2Record",
    "check_comm_budget",
    "check_lemma2",
    "check_theorem1",
    "check_theorem2",
    "check_theorem3",
]


@dataclass(frozen=True)
class Lemma2Record:
    """One (phase, token) observation of Lemma 2's progress guarantee."""

    phase: int
    token: int
    heads_before: int
    heads_after: int
    required: int
    satisfied: bool


def check_lemma2(scenario: Scenario, strict: bool = False) -> List[Lemma2Record]:
    """Instrument an Algorithm-1 run and measure Lemma 2 phase by phase.

    For each phase ``i`` and token ``t`` known by *some node* at the start
    of ``i`` (the lemma's premise), the number of heads newly learning
    ``t`` must reach ``min(⌊(T−k)/L⌋, ignorant heads remaining)``.

    Returns one record per (phase, token) premise instance; the caller
    asserts ``all(r.satisfied ...)``.
    """
    T = int(scenario.params["T"])
    L = int(scenario.params["L"])
    theta = int(scenario.params["theta"])
    alpha = int(scenario.params["alpha"])
    k = scenario.k
    M = algorithm1_phases(theta, alpha)

    result = SynchronousEngine(obs="record").run(
        scenario.trace,
        make_algorithm1_factory(T=T, M=M, strict=strict),
        k=k,
        initial=scenario.initial,
        max_rounds=M * T,
    )
    recording = result.recording
    assert recording is not None

    guaranteed = max((T - k) // L, 0)
    total_rounds = recording.rounds_recorded
    phases = [
        (phase, phase * T, min((phase + 1) * T - 1, total_rounds - 1))
        for phase in range(M)
        if phase * T < total_rounds
    ]
    # end-of-round knowledge at every phase boundary, in one replay pass
    wanted = {r for _, start, end in phases for r in (start - 1, end)}
    knowledge = {r: state for r, state in recording.states() if r in wanted}

    records: List[Lemma2Record] = []
    for phase, start_round, end_round in phases:
        before = knowledge[start_round - 1]
        after = knowledge[end_round]
        heads = scenario.trace.snapshot(start_round).heads()
        for t in range(k):
            known_by_someone = any(t in toks for toks in before.values())
            if not known_by_someone:
                continue
            h_before = sum(1 for h in heads if t in before[h])
            h_after = sum(1 for h in heads if t in after[h])
            ignorant = len(heads) - h_before
            required = min(guaranteed, ignorant)
            records.append(
                Lemma2Record(
                    phase=phase,
                    token=t,
                    heads_before=h_before,
                    heads_after=h_after,
                    required=required,
                    satisfied=(h_after - h_before) >= required,
                )
            )
    return records


def check_theorem1(scenario: Scenario, strict: bool = False, cache=None) -> dict:
    """Measure Theorem 1: Algorithm 1 completes within ⌈θ/α⌉+1 phases."""
    from .runner import execute

    rec = execute("algorithm1", scenario, strict=strict, cache=cache)
    return {
        "bound_rounds": rec.bound_rounds,
        "completion_round": rec.completion_round,
        "holds": rec.complete
        and rec.completion_round is not None
        and rec.completion_round <= rec.bound_rounds,
    }


def check_theorem2(scenario: Scenario, cache=None) -> dict:
    """Measure Theorem 2: Algorithm 2 completes within n−1 rounds."""
    from .runner import execute

    rec = execute("algorithm2", scenario, cache=cache)
    bound = algorithm2_rounds_1interval(scenario.n)
    return {
        "bound_rounds": bound,
        "completion_round": rec.completion_round,
        "holds": rec.complete
        and rec.completion_round is not None
        and rec.completion_round <= bound,
    }


def check_theorem3(scenario: Scenario, theta: int, alpha: int, L: int) -> dict:
    """Measure Theorem 3 under its *consistent-with-proof* reading.

    The paper states the bound as ``M ≥ ⌈θ/α⌉ + 1`` **rounds**, but that
    cannot be literal: a token physically needs ~θ·L backbone hops at one
    hop per round, far exceeding ⌈θ/α⌉+1 for any α > 1.  The proof sketch
    ("similar to Theorem 1") argues per *(α·L)-interval* — each interval
    advances every token by ≥ α heads — so the consistent bound is
    ``(⌈θ/α⌉ + 1)`` intervals, i.e. ``(⌈θ/α⌉ + 1) · α·L`` rounds.  We
    check that reading (and record the literal one for reference); see
    EXPERIMENTS.md's errata notes.

    The scenario's hierarchy must be stable on (α·L)-blocks — e.g. the
    HiNet generator with ``T = α·L``.
    """
    from ..core.bounds import algorithm2_rounds_head_connectivity
    from .runner import execute

    intervals = algorithm2_rounds_head_connectivity(theta, alpha)
    bound = intervals * alpha * L
    rec = execute("algorithm2", scenario, rounds=bound)
    return {
        "bound_intervals": intervals,
        "bound_rounds": bound,
        "paper_literal_rounds": intervals,
        "completion_round": rec.completion_round,
        "holds": rec.complete
        and rec.completion_round is not None
        and rec.completion_round <= bound,
    }


def check_comm_budget(scenario: Scenario, strict: bool = False) -> dict:
    """Check Algorithm 1's measured communication against Table 2's bill.

    The paper's formula ``(⌈θ/α⌉+1)(n₀−n_m)k + n_m·n_r·k`` bounds the
    head/gateway broadcasts plus member *re*-uploads; member *initial*
    uploads (≤ n_m·k) are absorbed into its asymptotics, so the honest
    measurable inequality is

        measured  ≤  analytic + n_m·k.
    """
    from math import ceil

    from .runner import execute

    rec = execute("algorithm1", scenario, strict=strict)
    theta = int(scenario.params["theta"])
    alpha = int(scenario.params["alpha"])
    nm = float(scenario.params["nm"])
    nr = float(scenario.params["nr"])
    k = scenario.k
    phases = ceil(theta / alpha) + 1
    analytic = phases * (scenario.n - nm) * k + nm * nr * k
    allowance = analytic + nm * k
    return {
        "measured": rec.tokens_sent,
        "analytic": analytic,
        "allowance": allowance,
        "holds": rec.complete and rec.tokens_sent <= allowance,
    }

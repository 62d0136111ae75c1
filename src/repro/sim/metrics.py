"""Cost accounting for simulation runs.

The paper evaluates algorithms on exactly two axes (Section V):

* **time cost** — number of synchronous rounds, and
* **communication cost** — total number of tokens sent ("total size of
  packets" in Tables 2/3; each broadcast of one token costs 1 regardless of
  how many neighbours hear it, and a unicast of a set of tokens costs the
  set's size).

:class:`Metrics` records those two plus enough auxiliary detail (per-role
breakdown, per-round series, message counts) to support the extension
benchmarks and ablations without re-running simulations.  Neither engine
tier bills a send here: both bill the run's send-count table
(:meth:`~repro.obs.observer.SendTable.bill`), which settles the send
counters of :class:`Metrics`; rounds, coverage, losses, crashes and
completion are counted here directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Metrics", "RoleCost"]


@dataclass
class RoleCost:
    """Token and message counters attributed to one node role."""

    tokens: int = 0
    messages: int = 0


@dataclass
class Metrics:
    """Aggregate cost record for one simulation run.

    The send counters — ``tokens_sent``, ``messages_sent``,
    ``broadcasts``, ``unicasts``, ``dropped_unicasts``, ``by_role`` and
    ``per_round_tokens`` — are settled from the run's send-count table
    (:meth:`~repro.obs.observer.SendTable.settle`) on both engine tiers.

    Attributes
    ----------
    rounds:
        Rounds executed before the run stopped (termination bound reached
        or completion detected, whichever the runner used).
    completion_round:
        First round (1-based count of elapsed rounds) at the end of which
        every node held all ``k`` tokens, or ``None`` if never.
    tokens_sent:
        The paper's communication cost: total tokens across all
        transmissions.
    messages_sent:
        Number of transmissions (broadcast counts once).
    broadcasts, unicasts:
        Transmission counts by delivery type.
    dropped_unicasts:
        Unicasts whose destination was not a neighbour in that round (the
        destination never receives them, but the send is still paid for —
        the radio transmitted).
    lost_deliveries:
        Deliveries suppressed by the link model (``link=``);
        each broadcast audience member lost counts once.
    crashed_nodes:
        Nodes removed by crash-stop churn over the whole run (each crash
        counts once; crashed nodes stop sending and absorbing and their
        token sets are wiped).
    by_role:
        Token/message counters keyed by role name (``"head"``,
        ``"gateway"``, ``"member"``, or ``"flat"`` for role-less
        algorithms), ordered by the first round the role sent, then by
        role code — the order of the timeline's role columns.
    per_round_tokens:
        Tokens sent in each round, for time-series plots.
    per_round_coverage:
        After each round, the number of (node, token) pairs known — a
        dissemination progress curve.
    """

    rounds: int = 0
    completion_round: Optional[int] = None
    tokens_sent: int = 0
    messages_sent: int = 0
    broadcasts: int = 0
    unicasts: int = 0
    dropped_unicasts: int = 0
    lost_deliveries: int = 0
    crashed_nodes: int = 0
    by_role: Dict[str, RoleCost] = field(default_factory=dict)
    per_round_tokens: List[int] = field(default_factory=list)
    per_round_coverage: List[int] = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def record_loss(self, count: int = 1) -> None:
        """Account ``count`` deliveries suppressed by the link model."""
        self.lost_deliveries += count

    def record_crashes(self, count: int = 1) -> None:
        """Account ``count`` nodes removed by crash-stop churn."""
        self.crashed_nodes += count

    def end_round(self, coverage: int, rounds: int = 1) -> None:
        """Close the current round (or the next ``rounds``), recording
        global (node, token) coverage at the end of each."""
        self.rounds += rounds
        self.per_round_coverage.extend([coverage] * rounds)

    def mark_complete(self) -> None:
        """Record that full dissemination was first observed this round."""
        if self.completion_round is None:
            self.completion_round = self.rounds

    # -- derived views ---------------------------------------------------

    @property
    def complete(self) -> bool:
        """Whether full dissemination was reached during the run."""
        return self.completion_round is not None

    def role_tokens(self, role: str) -> int:
        """Tokens sent by nodes holding ``role`` (0 if the role never sent)."""
        cost = self.by_role.get(role)
        return cost.tokens if cost else 0

    def role_messages(self, role: str) -> int:
        """Transmissions by nodes holding ``role`` (0 if the role never sent)."""
        cost = self.by_role.get(role)
        return cost.messages if cost else 0

    def summary(self) -> Dict[str, object]:
        """Flat dict of headline numbers, convenient for result tables."""
        return {
            "rounds": self.rounds,
            "completion_round": self.completion_round,
            "tokens_sent": self.tokens_sent,
            "messages_sent": self.messages_sent,
            "broadcasts": self.broadcasts,
            "unicasts": self.unicasts,
            "dropped_unicasts": self.dropped_unicasts,
            "lost_deliveries": self.lost_deliveries,
            "crashed_nodes": self.crashed_nodes,
        }

    def __str__(self) -> str:
        done = (
            f"complete@{self.completion_round}"
            if self.complete
            else "incomplete"
        )
        return (
            f"Metrics(rounds={self.rounds}, {done}, "
            f"tokens={self.tokens_sent}, msgs={self.messages_sent})"
        )

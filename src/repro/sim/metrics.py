"""Cost accounting for simulation runs.

The paper evaluates algorithms on exactly two axes (Section V):

* **time cost** — number of synchronous rounds, and
* **communication cost** — total number of tokens sent ("total size of
  packets" in Tables 2/3; each broadcast of one token costs 1 regardless of
  how many neighbours hear it, and a unicast of a set of tokens costs the
  set's size).

:class:`Metrics` records those two plus enough auxiliary detail (per-role
breakdown, per-round series, message counts) to support the extension
benchmarks and ablations without re-running simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .messages import Delivery, Message

__all__ = ["Metrics", "RoleCost"]


@dataclass
class RoleCost:
    """Token and message counters attributed to one node role."""

    tokens: int = 0
    messages: int = 0

    def add(self, message: Message) -> None:
        """Account one transmission."""
        self.tokens += message.cost
        self.messages += 1


@dataclass
class Metrics:
    """Aggregate cost record for one simulation run.

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
        algorithms).
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

    def begin_round(self) -> None:
        """Open accounting for a new round."""
        self.per_round_tokens.append(0)

    def record_send(self, message: Message, role: str = "flat") -> None:
        """Account one transmission sent in the current round."""
        self.tokens_sent += message.cost
        self.messages_sent += 1
        if message.delivery is Delivery.BROADCAST:
            self.broadcasts += 1
        else:
            self.unicasts += 1
        self.by_role.setdefault(role, RoleCost()).add(message)
        if self.per_round_tokens:
            self.per_round_tokens[-1] += message.cost

    def record_drop(self) -> None:
        """Account a unicast whose destination was unreachable this round."""
        self.dropped_unicasts += 1

    def record_loss(self, count: int = 1) -> None:
        """Account ``count`` deliveries suppressed by the link model."""
        self.lost_deliveries += count

    def record_crashes(self, count: int = 1) -> None:
        """Account ``count`` nodes removed by crash-stop churn."""
        self.crashed_nodes += count

    def end_round(self, coverage: int) -> None:
        """Close the current round, recording global (node, token) coverage."""
        self.rounds += 1
        self.per_round_coverage.append(coverage)

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

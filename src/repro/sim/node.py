"""Node-algorithm protocol for the synchronous engine.

A dissemination algorithm is implemented as a per-node object subclassing
:class:`NodeAlgorithm`.  Each round the engine calls, for every node,

1. :meth:`NodeAlgorithm.send` — decide what to transmit given this round's
   local view (:class:`RoundContext`), then
2. :meth:`NodeAlgorithm.receive` — process everything delivered this round.

Nodes see only local information: their own id, their current neighbours,
their role and head (if the scenario is clustered), and the round number —
matching the knowledge model of the paper, where nodes can probe neighbours
and know their cluster assignment but nothing global.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Sequence

from ..roles import Role
from .messages import Message

__all__ = ["RoundContext", "NodeAlgorithm", "AlgorithmFactory"]


@dataclass(frozen=True, slots=True)
class RoundContext:
    """A node's local view of one round.

    Attributes
    ----------
    round_index:
        Global round counter (0-based).  Algorithms derive their own phase
        structure from it (e.g. Algorithm 1's phase = ``round_index // T``).
    node:
        The node's own id.
    neighbors:
        Current neighbour set.
    role:
        The node's current :class:`~repro.roles.Role`, or ``None`` in a
        flat scenario.
    head:
        Current cluster head id (self for heads), or ``None`` if
        unaffiliated / flat.
    """

    round_index: int
    node: int
    neighbors: FrozenSet[int]
    role: Optional[Role] = None
    head: Optional[int] = None


class NodeAlgorithm(ABC):
    """Base class for per-node dissemination algorithms.

    Subclasses must keep :attr:`TA` — the set of tokens ever collected —
    up to date; the engine reads it for coverage accounting and the final
    output.  The name mirrors the paper's pseudo-code.

    Parameters
    ----------
    node:
        This node's id.
    k:
        Total number of tokens in the instance (known to all nodes, as the
        paper's analysis assumes).
    initial_tokens:
        The tokens in this node's input.
    """

    def __init__(self, node: int, k: int, initial_tokens: FrozenSet[int]) -> None:
        self.node = node
        self.k = k
        self.TA: set[int] = set(initial_tokens)

    # -- engine interface --------------------------------------------------

    @abstractmethod
    def send(self, ctx: RoundContext) -> Sequence[Message]:
        """Return the transmissions for this round (possibly empty)."""

    @abstractmethod
    def receive(self, ctx: RoundContext, inbox: Sequence[Message]) -> None:
        """Process all messages delivered this round."""

    def finished(self, ctx: RoundContext) -> bool:
        """Local termination: ``True`` once this node will never send again.

        The engine stops early when *every* node reports finished.  The
        default is never, i.e. the engine's round bound governs.
        """
        return False

    # -- outputs -----------------------------------------------------------

    @property
    def tokens(self) -> FrozenSet[int]:
        """The tokens collected so far (the algorithm's eventual output)."""
        return frozenset(self.TA)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(node={self.node}, "
            f"|TA|={len(self.TA)}/{self.k})"
        )


#: Callable building a node's algorithm instance: (node, k, initial) -> algorithm.
AlgorithmFactory = Callable[[int, int, FrozenSet[int]], NodeAlgorithm]

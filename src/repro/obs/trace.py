"""Causal provenance tracing: one first-learn event per (node, token).

Recorded at ``obs="trace"``.  A :class:`CausalTrace` stores exactly one
compact event per (node, token) pair — the round a node first learned a
token, from whom, and the sender's role — for O(n·k) total across the
whole run, recorded natively by **both** engines.

Engine-identical by construction
--------------------------------
The two engines deliver the same messages in different internal orders
(the reference engine fills per-node inboxes, the vectorised loop
concatenates flat delivery arrays), so the recorded sender must not
depend on iteration order.  The canonical rule, applied by
:func:`first_learns` to both engines' flat deliveries (through
:class:`~repro.obs.observer.RunObserver`):

* a token held before round 0 is an **origin**: round −1, sender −1,
  role ``"origin"``;
* a token first present at the end of round ``r`` is attributed to the
  **minimum sender id** among the messages delivered to the node in
  round ``r`` that carried the token (min is order-independent);
* if no delivered message carried it (protocols that transform payloads,
  e.g. network coding decodes), the minimum sender id among *all* of the
  round's deliverers to that node, or −1 if there were none;
* the sender's role is its role in the **delivery-round** snapshot
  (``"flat"`` when the scenario has no hierarchy).

This makes causal traces part of the fastpath⇄reference bit-identity
guarantee, asserted registry-wide in ``tests/test_causal_trace.py``.

Queries
-------
:meth:`CausalTrace.provenance` walks a (node, token) pair back to its
origin — sender roles and phases per hop; :meth:`CausalTrace.hops` and
:meth:`CausalTrace.critical_path` measure chain lengths against the
α·L backbone-hop argument behind Theorem 1; the histogram views feed
``repro explain``.  The result cache stores a trace's events as integer
columns (:func:`repro.io.run_record_to_dict`), so traces ride result
archives and the on-disk result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .recorder import token_csr

__all__ = ["CausalTrace", "LearnEvent", "ORIGIN_ROLE", "first_learns"]

#: Role string attributed to origin events (token held before round 0).
ORIGIN_ROLE = "origin"

#: No sender yet: above every node id.
_NONE = np.iinfo(np.int64).max


def first_learns(
    gained: np.ndarray,
    deliveries: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Attribute every token gained this round to its sender.

    ``gained`` is the round's ``(n, W)`` ``uint64`` bit-matrix of newly
    held tokens; ``deliveries`` is the round's flat ``(receiver, sender,
    payload)`` arrays, payload as packed ``uint64`` token rows (``None``
    when nothing landed).  Returns ``(nodes, tokens, senders)`` arrays,
    one entry per gained pair in node, then token order, under the
    canonical rule of the module docstring: the minimum sender whose
    delivered payload carried the token, else the node's minimum
    deliverer, else −1.

    One segment-min per round: each delivery's payload, masked by its
    receiver's gains, is expanded into one (pair, sender) entry per
    gained token it carried, and ``np.minimum.at`` keeps each pair's
    least sender.
    """
    rows = np.flatnonzero(gained.any(axis=1))
    lengths, tokens = token_csr(gained[rows])
    nodes = np.repeat(rows, lengths)
    if deliveries is None or not nodes.size:
        return nodes, tokens, np.full(nodes.size, -1, dtype=np.int64)
    rec, snd, payload = deliveries
    least = np.full(gained.shape[0], _NONE, dtype=np.int64)
    np.minimum.at(least, rec, snd)
    carried, carried_tokens = token_csr(payload & gained[rec])
    # pairs are numbered in (node, token) order, so their keys ascend
    width = 64 * gained.shape[1]
    pair = np.searchsorted(
        nodes * width + tokens, np.repeat(rec, carried) * width + carried_tokens
    )
    senders = np.full(nodes.size, _NONE, dtype=np.int64)
    np.minimum.at(senders, pair, np.repeat(snd, carried))
    senders = np.where(senders == _NONE, least[nodes], senders)
    return nodes, tokens, np.where(senders == _NONE, -1, senders)


@dataclass(frozen=True)
class LearnEvent:
    """One first-learn fact: ``node`` first held ``token`` after ``round``.

    ``round == -1`` (with ``sender == -1`` and role ``"origin"``) marks an
    initial-assignment origin; otherwise ``sender`` transmitted a message
    carrying the token that was delivered to ``node`` in ``round``, and
    ``sender_role`` is the sender's role in that round's snapshot.
    """

    node: int
    token: int
    round: int
    sender: int
    sender_role: str

    @property
    def is_origin(self) -> bool:
        return self.round < 0


@dataclass
class CausalTrace:
    """First-learn events for one run, keyed by (node, token).

    Attributes
    ----------
    n, k:
        Instance dimensions (``None`` when unknown).
    events:
        ``(node, token) → (round, sender, sender_role)``; at most ``n·k``
        entries.  Append-only during a run: the first record wins, which
        is exactly the first-learn semantics.
    phase_length:
        The scenario's phase length ``T`` when known (set by
        :func:`repro.experiments.runner.execute` from the plan), enabling
        phase-aware queries.  Excluded from equality: it is presentation
        metadata, not an observation.
    """

    n: Optional[int] = None
    k: Optional[int] = None
    events: Dict[Tuple[int, int], Tuple[int, int, str]] = field(default_factory=dict)
    phase_length: Optional[int] = field(default=None, compare=False)

    # -- recording (engine-facing) ----------------------------------------

    def record_origin(self, node: int, token: int) -> None:
        """Mark ``token`` as held by ``node`` before round 0."""
        self.events.setdefault((node, token), (-1, -1, ORIGIN_ROLE))

    def record_learn(
        self, node: int, token: int, round_index: int, sender: int, sender_role: str
    ) -> None:
        """Record that ``node`` first held ``token`` at the end of
        ``round_index``, attributed to ``sender`` (see module docstring
        for the canonical attribution rule)."""
        self.events.setdefault((node, token), (round_index, sender, sender_role))

    # -- basic lookups -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def first_learned(self, node: int, token: int) -> Optional[LearnEvent]:
        """The first-learn event for ``(node, token)``, or ``None``."""
        entry = self.events.get((node, token))
        if entry is None:
            return None
        r, sender, role = entry
        return LearnEvent(node=node, token=token, round=r, sender=sender,
                          sender_role=role)

    def phase_of(self, round_index: int) -> Optional[int]:
        """Phase index of ``round_index`` (``None`` without a phase length;
        origins, round −1, map to phase −1 by convention)."""
        if self.phase_length is None or self.phase_length < 1:
            return None
        if round_index < 0:
            return -1
        return round_index // self.phase_length

    # -- provenance chains -------------------------------------------------

    def provenance(self, node: int, token: int) -> List[LearnEvent]:
        """The hop chain that carried ``token`` to ``node``, origin first.

        Walks sender links backwards: each hop's sender learned the token
        strictly earlier (messages are sent from the sender's end-of-round
        state), so the chain is finite; a ``visited`` guard makes even a
        malformed trace terminate.  Chains end early (no origin entry)
        when a hop's sender has no recorded event for the token — e.g.
        payload-transforming protocols.  Empty if the pair was never
        observed.
        """
        chain: List[LearnEvent] = []
        visited = set()
        current: Optional[int] = node
        while current is not None and current not in visited:
            visited.add(current)
            event = self.first_learned(current, token)
            if event is None:
                break
            chain.append(event)
            current = event.sender if event.sender >= 0 else None
        chain.reverse()
        return chain

    def hops(self, node: int, token: int) -> Optional[int]:
        """Chain length in transmission hops (0 for an origin holder);
        ``None`` if the pair was never observed."""
        if (node, token) not in self.events:
            return None
        return self._depth(node, token)

    def _depth(self, node: int, token: int, _memo=None, _guard=None) -> int:
        memo = _memo if _memo is not None else {}
        guard = _guard if _guard is not None else set()
        key = (node, token)
        if key in memo:
            return memo[key]
        entry = self.events.get(key)
        if entry is None:
            # chain broken (payload-transforming protocol): count the hop
            memo[key] = 0
            return 0
        r, sender, _role = entry
        if r < 0 or sender < 0 or key in guard:
            memo[key] = 0
            return 0
        guard.add(key)
        depth = 1 + self._depth(sender, token, memo, guard)
        guard.discard(key)
        memo[key] = depth
        return depth

    def critical_path(self, token: int) -> Tuple[int, Optional[int]]:
        """Longest hop chain that delivered ``token`` to any node.

        Returns ``(hops, last_round)``: the maximum chain length over all
        holders and the round of the latest first-learn (``None`` if the
        token only ever sat at its origins).
        """
        memo: Dict[Tuple[int, int], int] = {}
        worst = 0
        last_round: Optional[int] = None
        for (node, tok), (r, _s, _role) in self.events.items():
            if tok != token:
                continue
            worst = max(worst, self._depth(node, tok, memo))
            if r >= 0 and (last_round is None or r > last_round):
                last_round = r
        return worst, last_round

    # -- aggregate views ---------------------------------------------------

    def token_events(self, token: int) -> List[LearnEvent]:
        """Every first-learn event for ``token``, sorted by (round, node)."""
        out = [
            LearnEvent(node=node, token=tok, round=r, sender=s, sender_role=role)
            for (node, tok), (r, s, role) in self.events.items()
            if tok == token
        ]
        out.sort(key=lambda e: (e.round, e.node))
        return out

    def hop_histogram(self) -> Dict[int, int]:
        """``{chain length → (node, token) pairs}`` over all observations."""
        memo: Dict[Tuple[int, int], int] = {}
        hist: Dict[int, int] = {}
        for node, token in self.events:
            d = self._depth(node, token, memo)
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))

    def latency_histogram(self) -> Dict[int, int]:
        """``{first-learn round → events}`` (origins excluded)."""
        hist: Dict[int, int] = {}
        for r, _s, _role in self.events.values():
            if r >= 0:
                hist[r] = hist.get(r, 0) + 1
        return dict(sorted(hist.items()))

    def coverage(self) -> int:
        """Total (node, token) pairs observed — matches the timeline's
        final coverage counter for absorb-only protocols."""
        return len(self.events)

    def events_jsonl(self) -> Iterator[Dict[str, Any]]:
        """One JSON-ready ``learn`` event per entry, deterministic order."""
        for (node, token), (r, sender, role) in sorted(self.events.items()):
            yield {
                "type": "learn",
                "node": node,
                "token": token,
                "round": r,
                "sender": sender,
                "sender_role": role,
            }

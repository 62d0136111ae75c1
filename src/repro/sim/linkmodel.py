"""Pluggable per-round link models: loss, churn, and fault injection.

Both engine tiers decompose a round into the same five stages —
topology-view → send-intents → **link transform** → absorb →
role-update — and this module owns the third stage.  A
:class:`LinkModel` decides, for round ``r``:

* which nodes **crash** at the start of the round (:meth:`LinkModel.crashes`
  — crash-stop churn: a crashed node's token set is wiped, it never
  sends or absorbs again, and completion accounting shrinks to the
  surviving population);
* which candidate **deliveries survive** the channel
  (:meth:`LinkModel.deliver_mask` / :meth:`LinkModel.delivers` — i.i.d.
  or bursty message loss); and
* which single-bit **state faults** to inject after the absorb stage
  (:meth:`LinkModel.faults` — the :class:`PinpointFault` hook behind
  ``repro diff --engines`` divergence tests).

RNG stream discipline
---------------------
Link decisions are *counter-based*: each one is a pure hash of
``(derived seed, round, sender, receiver)`` through a splitmix64-style
finalizer, never a draw from a sequential stream.  That single property
is what makes the seam implementable several times without several
sources of truth:

* the reference engine evaluates one edge at a time (Python ints),
* the vectorised loop masks CSR edge arrays, or flat delivery arrays
  under scatter delivery (uint64 vectors),

and all of them see bit-identical decisions because the hash does not
depend on evaluation order, batching, or how many other draws happened
first.  A delivery decision is keyed by the *directed edge and round*,
so two messages crossing the same edge in the same round share one
channel fate (per-round link state, not per-message coin flips).

Adding a fault axis means subclassing :class:`LinkModel` (≈50 lines,
see :class:`BurstyLoss`) — the engines never change.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .rng import derive_seed

__all__ = [
    "BurstyLoss",
    "CrashChurn",
    "IidLoss",
    "LinkChain",
    "LinkModel",
    "PinpointFault",
    "effective_link",
    "link_from_spec",
    "uniform_one",
    "uniforms",
]

#: The engine tiers, by the names ``engine=`` takes.
ALL_TIERS = ("reference", "fast")

_M64 = (1 << 64) - 1
# odd 64-bit keys separating the round / sender / receiver coordinates
_KEY_ROUND = 0x9E3779B97F4A7C15
_KEY_A = 0xC2B2AE3D27D4EB4F
_KEY_B = 0x165667B19E3779F9
_INV_2_53 = 2.0 ** -53

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _mix(x: int) -> int:
    """splitmix64 finalizer on Python ints (masked 64-bit arithmetic)."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _mix_arr(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer on a uint64 array, in place (wrapping
    arithmetic); ``tmp`` is a scratch buffer of the same shape."""
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= np.uint64(0x94D049BB133111EB)
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp


def _round_key(seed: int, r: int) -> int:
    return _mix(seed ^ ((r * _KEY_ROUND) & _M64))


def uniform_one(seed: int, r: int, a: int, b: int) -> float:
    """The scalar hash uniform in [0, 1) — bit-identical to :func:`uniforms`."""
    h = _round_key(seed, r)
    h = _mix(h ^ (((int(a) + 1) * _KEY_A) & _M64))
    h = _mix(h ^ (((int(b) + 1) * _KEY_B) & _M64))
    return (h >> 11) * _INV_2_53


def uniforms(seed: int, r: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorised hash uniforms in [0, 1) for coordinate arrays ``a``, ``b``."""
    # two uint64 buffers for the whole hash: every step works in place
    h = np.asarray(a, dtype=np.int64).astype(np.uint64)
    h += np.uint64(1)
    h *= np.uint64(_KEY_A)
    h ^= np.uint64(_round_key(seed, r))
    tmp = np.empty_like(h)
    _mix_arr(h, tmp)
    np.copyto(tmp, np.asarray(b, dtype=np.int64), casting="unsafe")
    tmp += np.uint64(1)
    tmp *= np.uint64(_KEY_B)
    h ^= tmp
    _mix_arr(h, tmp)
    h >>= np.uint64(11)
    out = h.astype(np.float64)
    out *= _INV_2_53
    return out


def _resolve_seed(seed) -> int:
    """A concrete stored seed: explicit ints pass through, None draws entropy."""
    return derive_seed(None) if seed is None else int(seed)


class LinkModel:
    """Neutral base: delivers everything, crashes nobody, injects nothing.

    Subclasses override any of the three decision surfaces; every
    override must be a pure function of ``(seed, round, ids)`` so the
    two engine tiers agree bit-for-bit (see the module docstring for the
    counter-based discipline).  ``tiers`` names the engine tiers the
    model applies to — the default is both; a :class:`PinpointFault`
    restricted to ``("fast",)`` gives ``diff --engines`` a clean
    reference to diverge from.
    """

    kind = "identity"
    tiers: Tuple[str, ...] = ALL_TIERS

    def spec(self) -> Dict[str, object]:
        """JSON-able description; :func:`link_from_spec` inverts it."""
        return {"kind": self.kind}

    def crashes(self, r: int, alive: np.ndarray) -> np.ndarray:
        """Ids of nodes that crash at the start of round ``r``.

        ``alive`` is the current liveness mask (length n); only ids that
        are still alive may be returned.
        """
        return _EMPTY_IDS

    def deliver_mask(
        self, r: int, senders: np.ndarray, receivers: np.ndarray
    ) -> Optional[np.ndarray]:
        """Bool keep-mask over candidate deliveries, or None for "keep all"."""
        return None

    def delivers(self, r: int, sender: int, receiver: int) -> bool:
        """Scalar mirror of :meth:`deliver_mask` for the reference tier."""
        return True

    def faults(self, r: int) -> Sequence[Tuple[int, int]]:
        """(node, token) bits to XOR into state after round ``r``'s absorb."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec()})"


class IidLoss(LinkModel):
    """Each candidate delivery is independently suppressed with probability p.

    "Independently" across edges and rounds; the two directions of an
    edge and repeated messages on the same directed edge within one
    round share a fate (per-round channel state).
    """

    kind = "iid-loss"

    def __init__(self, p: float, seed=0) -> None:
        if not (0.0 <= float(p) < 1.0):
            raise ValueError(f"loss probability must be in [0, 1), got {p}")
        self.p = float(p)
        self.seed = _resolve_seed(seed)
        self._sub = derive_seed(self.seed, "link", "iid-loss")

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind, "p": self.p, "seed": self.seed}

    def deliver_mask(self, r, senders, receivers):
        if self.p == 0.0:
            return None
        return uniforms(self._sub, r, senders, receivers) >= self.p

    def delivers(self, r, sender, receiver):
        if self.p == 0.0:
            return True
        return uniform_one(self._sub, r, sender, receiver) >= self.p


class BurstyLoss(LinkModel):
    """Gilbert-style bursty loss: edges dip into lossy bursts for whole blocks.

    Time is cut into blocks of ``burst_len`` rounds.  In each block a
    directed edge is independently in a *burst* with probability
    ``burst_p``; while bursty its deliveries are suppressed with
    probability ``p`` (and with ``p_good``, default 0, otherwise).  Both
    the block state and the per-round draw are counter-based hashes, so
    the model stays stateless and order-independent like everything else
    behind the seam.
    """

    kind = "bursty-loss"

    def __init__(
        self, p: float, burst_len: int = 5, burst_p: float = 0.3,
        p_good: float = 0.0, seed=0,
    ) -> None:
        if not (0.0 <= float(p) < 1.0):
            raise ValueError(f"burst loss probability must be in [0, 1), got {p}")
        if not (0.0 <= float(p_good) < 1.0):
            raise ValueError(f"p_good must be in [0, 1), got {p_good}")
        if not (0.0 <= float(burst_p) <= 1.0):
            raise ValueError(f"burst_p must be in [0, 1], got {burst_p}")
        if int(burst_len) < 1:
            raise ValueError(f"burst_len must be >= 1, got {burst_len}")
        self.p = float(p)
        self.burst_len = int(burst_len)
        self.burst_p = float(burst_p)
        self.p_good = float(p_good)
        self.seed = _resolve_seed(seed)
        self._state = derive_seed(self.seed, "link", "burst-state")
        self._draw = derive_seed(self.seed, "link", "burst-draw")

    def spec(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "p": self.p,
            "burst_len": self.burst_len,
            "burst_p": self.burst_p,
            "p_good": self.p_good,
            "seed": self.seed,
        }

    def deliver_mask(self, r, senders, receivers):
        block = r // self.burst_len
        bursty = uniforms(self._state, block, senders, receivers) < self.burst_p
        p_eff = np.where(bursty, self.p, self.p_good)
        return uniforms(self._draw, r, senders, receivers) >= p_eff

    def delivers(self, r, sender, receiver):
        block = r // self.burst_len
        bursty = uniform_one(self._state, block, sender, receiver) < self.burst_p
        p_eff = self.p if bursty else self.p_good
        return uniform_one(self._draw, r, sender, receiver) >= p_eff


class CrashChurn(LinkModel):
    """Crash-stop churn: each alive node independently crashes per round.

    A crashed node leaves mid-run: its token set is wiped (the recorder
    sees the loss as an ordinary delta), it stops sending and absorbing,
    and completion is measured over the survivors.  Crash draws are
    hashed per ``(round, node)``, so every tier wipes the same nodes.
    """

    kind = "crash-churn"

    def __init__(self, rate: float, seed=0) -> None:
        if not (0.0 <= float(rate) < 1.0):
            raise ValueError(f"churn rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.seed = _resolve_seed(seed)
        self._sub = derive_seed(self.seed, "link", "crash")

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind, "rate": self.rate, "seed": self.seed}

    def crashes(self, r, alive):
        if self.rate == 0.0:
            return _EMPTY_IDS
        ids = np.flatnonzero(alive).astype(np.int64)
        if ids.size == 0:
            return _EMPTY_IDS
        u = uniforms(self._sub, r, ids, np.zeros(ids.size, dtype=np.int64))
        return ids[u < self.rate]


class PinpointFault(LinkModel):
    """Deterministically flip one (node, token) bit after round ``round``.

    The divergence-bisection tests construct it directly; with
    ``tiers=("fast",)`` the vectorised run diverges from the reference at
    exactly this round and node.  ``tiers`` takes only names in
    :data:`ALL_TIERS`.
    """

    kind = "pinpoint-fault"

    def __init__(
        self, round: int, node: int, token: int,
        tiers: Optional[Iterable[str]] = None,
    ) -> None:
        self.round = int(round)
        self.node = int(node)
        self.token = int(token)
        if tiers is not None:
            tiers = tuple(tiers)
            unknown = set(tiers) - set(ALL_TIERS)
            if unknown:
                raise ValueError(
                    f"unknown engine tier(s) {sorted(unknown)}; the tiers "
                    f"are {', '.join(map(repr, ALL_TIERS))}"
                )
            self.tiers = tiers

    def spec(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "round": self.round,
            "node": self.node,
            "token": self.token,
        }
        if self.tiers != ALL_TIERS:
            out["tiers"] = list(self.tiers)
        return out

    def faults(self, r):
        return ((self.node, self.token),) if r == self.round else ()


class LinkChain(LinkModel):
    """Several link models applied together (crashes union, masks AND)."""

    kind = "chain"

    def __init__(self, models: Sequence[LinkModel]) -> None:
        if not models:
            raise ValueError("a link chain needs at least one model")
        self.models = tuple(models)
        seen: List[str] = []
        for m in self.models:
            for t in m.tiers:
                if t not in seen:
                    seen.append(t)
        self.tiers = tuple(t for t in ALL_TIERS if t in seen)

    def spec(self) -> Dict[str, object]:
        return {"kind": self.kind, "models": [m.spec() for m in self.models]}

    def crashes(self, r, alive):
        parts = [m.crashes(r, alive) for m in self.models]
        parts = [p for p in parts if len(p)]
        if not parts:
            return _EMPTY_IDS
        return np.unique(np.concatenate(parts)).astype(np.int64)

    def deliver_mask(self, r, senders, receivers):
        out = None
        for m in self.models:
            mask = m.deliver_mask(r, senders, receivers)
            if mask is not None:
                out = mask if out is None else (out & mask)
        return out

    def delivers(self, r, sender, receiver):
        return all(m.delivers(r, sender, receiver) for m in self.models)

    def faults(self, r):
        return tuple(f for m in self.models for f in m.faults(r))


_KINDS = {
    "identity": lambda d: LinkModel(),
    "iid-loss": lambda d: IidLoss(d["p"], seed=d.get("seed", 0)),
    "bursty-loss": lambda d: BurstyLoss(
        d["p"],
        burst_len=d.get("burst_len", 5),
        burst_p=d.get("burst_p", 0.3),
        p_good=d.get("p_good", 0.0),
        seed=d.get("seed", 0),
    ),
    "crash-churn": lambda d: CrashChurn(d["rate"], seed=d.get("seed", 0)),
    "pinpoint-fault": lambda d: PinpointFault(
        d["round"], d["node"], d["token"], tiers=d.get("tiers")
    ),
    "chain": lambda d: LinkChain([link_from_spec(m) for m in d["models"]]),
}


def link_from_spec(spec: Dict[str, object]) -> LinkModel:
    """Rebuild a :class:`LinkModel` from its :meth:`LinkModel.spec` dict.

    This is how link configurations ride through scenarios, the JSON
    codecs, and the result-cache key (the spec dict is part of the
    scenario fingerprint, so a different loss seed is a different cache
    entry).
    """
    kind = spec.get("kind")
    try:
        build = _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown link model kind {kind!r} (known: {sorted(_KINDS)})"
        ) from None
    return build(spec)


def effective_link(link: Optional[LinkModel], tier: str) -> Optional[LinkModel]:
    """``link`` if it targets engine ``tier``, else ``None`` — so the
    benign path stays exactly the pre-seam code path."""
    return link if link is not None and tier in link.tiers else None

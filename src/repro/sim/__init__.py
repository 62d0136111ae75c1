"""Synchronous round-based distributed-network simulator.

The substrate every algorithm in this library runs on.  See
:mod:`repro.sim.engine` for the exact round semantics (send → deliver →
receive, adversarial per-round topology, wireless-broadcast cost model).
"""

from .engine import ActiveRun, DynamicNetwork, RunResult, SynchronousEngine, run
from .linkmodel import (
    BurstyLoss,
    CrashChurn,
    IidLoss,
    LinkChain,
    LinkModel,
    PinpointFault,
    link_from_spec,
)
from .messages import Delivery, Message, TokenDomain, TokenSet, initial_assignment, token_range
from .metrics import Metrics, RoleCost
from .node import AlgorithmFactory, NodeAlgorithm, RoundContext
from .rng import SeedLike, derive_seed, make_rng, spawn
from .topology import Snapshot

__all__ = [
    "ActiveRun",
    "AlgorithmFactory",
    "BurstyLoss",
    "CrashChurn",
    "Delivery",
    "DynamicNetwork",
    "IidLoss",
    "LinkChain",
    "LinkModel",
    "Message",
    "Metrics",
    "NodeAlgorithm",
    "PinpointFault",
    "RoleCost",
    "RoundContext",
    "RunResult",
    "SeedLike",
    "Snapshot",
    "SynchronousEngine",
    "TokenDomain",
    "TokenSet",
    "derive_seed",
    "initial_assignment",
    "link_from_spec",
    "make_rng",
    "run",
    "spawn",
    "token_range",
]

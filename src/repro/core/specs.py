"""Registry specs for the paper's algorithms (registered at import).

Each spec derives its round budget from the scenario's model parameters
exactly as the corresponding theorem prescribes — the same derivations
the hand-written runners used to repeat.
"""

from __future__ import annotations

from ..registry import AlgorithmSpec, RunPlan, register
from .algorithm1 import make_algorithm1_factory
from .algorithm1_stable import make_algorithm1_stable_factory
from .algorithm2 import make_algorithm2_factory
from .bounds import (
    algorithm1_phases,
    algorithm1_stable_phases,
    algorithm2_rounds_1interval,
)

__all__ = ["ALGORITHM1", "ALGORITHM1_STABLE", "ALGORITHM2"]


def _plan_algorithm1(scenario, strict: bool = False) -> RunPlan:
    T = int(scenario.params["T"])
    theta = int(scenario.params["theta"])
    alpha = int(scenario.params["alpha"])
    M = algorithm1_phases(theta, alpha)
    return RunPlan(
        factory=make_algorithm1_factory(T=T, M=M, strict=strict),
        max_rounds=M * T,
        key_params={"T": T, "M": M, "strict": strict},
        phase_length=T,
        progress_alpha=alpha,
    )


ALGORITHM1 = register(
    AlgorithmSpec(
        name="algorithm1",
        display_name="Algorithm 1 (HiNet)",
        family="core",
        guarantee="guaranteed",
        model_class="(T,L)-HiNet",
        required_params=("T", "theta", "alpha"),
        plan=_plan_algorithm1,
        overrides=("strict",),
        fastpath=True,
        description="Theorem 1: M = ceil(theta/alpha)+1 phases of T rounds.",
    )
)


def _plan_algorithm1_stable(scenario) -> RunPlan:
    T = int(scenario.params["T"])
    alpha = int(scenario.params["alpha"])
    num_heads = int(scenario.params["num_heads"])
    M = algorithm1_stable_phases(num_heads, alpha)
    return RunPlan(
        factory=make_algorithm1_stable_factory(T=T, M=M),
        max_rounds=M * T,
        key_params={"T": T, "M": M},
        phase_length=T,
        progress_alpha=alpha,
    )


ALGORITHM1_STABLE = register(
    AlgorithmSpec(
        name="algorithm1-stable",
        display_name="Algorithm 1 (stable heads)",
        family="core",
        guarantee="guaranteed",
        model_class="(T,L)-HiNet, inf-stable heads",
        required_params=("T", "alpha", "num_heads"),
        plan=_plan_algorithm1_stable,
        fastpath=True,
        description="Remark 1: M = ceil(|V_h|/alpha)+1 phases of T rounds.",
    )
)


def _plan_algorithm2(scenario, rounds=None) -> RunPlan:
    M = algorithm2_rounds_1interval(scenario.n) if rounds is None else int(rounds)
    return RunPlan(
        factory=make_algorithm2_factory(M=M),
        max_rounds=M,
        key_params={"M": M},
    )


ALGORITHM2 = register(
    AlgorithmSpec(
        name="algorithm2",
        display_name="Algorithm 2 (HiNet)",
        family="core",
        guarantee="guaranteed",
        model_class="(1,L)-HiNet",
        required_params=(),
        plan=_plan_algorithm2,
        overrides=("rounds",),
        fastpath=True,
        description="Theorem 2: n-1 rounds under 1-interval connectivity.",
    )
)

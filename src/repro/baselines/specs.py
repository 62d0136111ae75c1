"""Registry specs for the comparison algorithms (registered at import).

The KLO pair are the paper's Table 2/3 comparators with theorem-derived
budgets; the related-work family (flooding, gossip, network coding) are
best-effort baselines measured over a fixed horizon.
"""

from __future__ import annotations

from ..core.bounds import algorithm2_rounds_1interval, klo_interval_phases
from ..registry import AlgorithmSpec, RunPlan, register
from .flooding import make_flood_all_factory, make_flood_new_factory
from .gossip import make_gossip_factory
from .kactive import make_kactive_factory
from .klo import make_klo_interval_factory, make_klo_one_factory
from .netcoding import make_netcoding_factory

__all__ = [
    "FLOOD_ALL",
    "FLOOD_NEW",
    "GOSSIP",
    "KACTIVE",
    "KLO_INTERVAL",
    "KLO_ONE",
    "NETCODING",
]


def _plan_klo_interval(scenario) -> RunPlan:
    T = int(scenario.params["T"])
    alpha = int(scenario.params["alpha"])
    L = int(scenario.params["L"])
    M = klo_interval_phases(scenario.n, alpha, L)
    return RunPlan(
        factory=make_klo_interval_factory(T=T, M=M),
        max_rounds=M * T,
        key_params={"T": T, "M": M},
        # KLO's per-phase progress is global, not per-head, so only the
        # phase structure is declared (no progress_alpha).
        phase_length=T,
    )


KLO_INTERVAL = register(
    AlgorithmSpec(
        name="klo-interval",
        display_name="KLO (T-interval)",
        family="baseline",
        guarantee="guaranteed",
        model_class="T-interval connected",
        required_params=("T", "alpha", "L"),
        plan=_plan_klo_interval,
        fastpath=True,
        families=("benign", "lossy", "churn", "adversarial"),
        description="KLO under T-interval connectivity: ceil(n0/(alpha*L)) "
        "phases of T rounds.",
    )
)


def _plan_klo_one(scenario, rounds=None) -> RunPlan:
    M = algorithm2_rounds_1interval(scenario.n) if rounds is None else int(rounds)
    return RunPlan(
        factory=make_klo_one_factory(M=M),
        max_rounds=M,
        key_params={"M": M},
    )


KLO_ONE = register(
    AlgorithmSpec(
        name="klo-one",
        display_name="KLO (1-interval)",
        family="baseline",
        guarantee="guaranteed",
        model_class="1-interval connected",
        required_params=(),
        plan=_plan_klo_one,
        overrides=("rounds",),
        fastpath=True,
        families=("benign", "lossy", "churn", "adversarial"),
        description="KLO 1-interval full broadcast for n-1 rounds.",
    )
)


def _plan_flood_all(scenario, rounds=None) -> RunPlan:
    M = algorithm2_rounds_1interval(scenario.n) if rounds is None else int(rounds)
    return RunPlan(
        factory=make_flood_all_factory(),
        max_rounds=M,
        key_params={"M": M},
        stop_when_complete=True,
    )


FLOOD_ALL = register(
    AlgorithmSpec(
        name="flood-all",
        display_name="Flood (all)",
        family="baseline",
        guarantee="guaranteed",
        model_class="1-interval connected",
        required_params=(),
        plan=_plan_flood_all,
        overrides=("rounds",),
        fastpath=True,
        families=("benign", "lossy", "churn", "adversarial"),
        description="Unconditional flooding, stopped at completion "
        "(measurement baseline).",
    )
)


def _plan_flood_new(scenario, rounds=None) -> RunPlan:
    M = 4 * scenario.n if rounds is None else int(rounds)
    return RunPlan(
        factory=make_flood_new_factory(),
        max_rounds=M,
        key_params={"M": M},
    )


FLOOD_NEW = register(
    AlgorithmSpec(
        name="flood-new",
        display_name="Flood (new only)",
        family="baseline",
        guarantee="best-effort",
        model_class="any",
        required_params=(),
        plan=_plan_flood_new,
        overrides=("rounds",),
        fastpath=True,
        families=("benign", "lossy", "churn", "adversarial"),
        description="Epidemic flooding (no delivery guarantee on dynamic "
        "graphs).",
    )
)


def _plan_kactive(scenario, A: int = 3, rounds=None) -> RunPlan:
    M = 4 * scenario.n if rounds is None else int(rounds)
    return RunPlan(
        factory=make_kactive_factory(A),
        max_rounds=M,
        key_params={"A": A, "M": M},
        label=f"{A}-active flood",
    )


KACTIVE = register(
    AlgorithmSpec(
        name="kactive",
        display_name="A-active flood",
        family="baseline",
        guarantee="best-effort",
        model_class="any",
        required_params=(),
        plan=_plan_kactive,
        overrides=("A", "rounds"),
        families=("benign", "lossy", "churn", "adversarial"),
        description="Parsimonious flooding: repeat each token A times.",
    )
)


def _plan_gossip(scenario, mode: str = "all", rounds=None, seed=None) -> RunPlan:
    M = 8 * scenario.n if rounds is None else int(rounds)
    return RunPlan(
        factory=make_gossip_factory(seed=seed, mode=mode),
        max_rounds=M,
        key_params={"M": M, "mode": mode, "seed": seed},
        stop_when_complete=True,
        label=f"Gossip ({mode})",
    )


GOSSIP = register(
    AlgorithmSpec(
        name="gossip",
        display_name="Gossip",
        family="baseline",
        guarantee="best-effort",
        model_class="any",
        required_params=(),
        plan=_plan_gossip,
        overrides=("mode", "rounds", "seed"),
        seeded=True,
        families=("benign", "lossy", "churn", "adversarial"),
        description="Random push gossip (probabilistic completion).",
    )
)


def _plan_netcoding(scenario, rounds=None, seed=None) -> RunPlan:
    M = 4 * scenario.n if rounds is None else int(rounds)
    return RunPlan(
        factory=make_netcoding_factory(seed=seed),
        max_rounds=M,
        key_params={"M": M, "seed": seed},
        stop_when_complete=True,
    )


NETCODING = register(
    AlgorithmSpec(
        name="netcoding",
        display_name="Network coding",
        family="baseline",
        guarantee="best-effort",
        model_class="any",
        required_params=(),
        plan=_plan_netcoding,
        overrides=("rounds", "seed"),
        seeded=True,
        families=("benign", "lossy", "churn", "adversarial"),
        description="GF(2) random linear network coding (Haeupler-Karger "
        "style).",
    )
)

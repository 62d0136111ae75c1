"""The declarative benchmark matrix: cases, tiers, budgets, scenarios.

A :class:`BenchCase` is one cell of the fleet's matrix over

    {algorithm spec} × {scenario family} × {n} × {engine tier} × {obs level}

— all plain scalars, so cases pickle into process-pool workers and print
as one row each (``repro bench --list``).  :func:`default_matrix` expands
the axes into every *valid* combination (family supported by the spec)
and assigns each case to named tiers:

* ``"quick"`` — the per-PR CI tier: small n, ``timeline`` telemetry,
  the vectorised engine paired against the reference engine;
* ``"full"`` — the nightly tier: everything in quick, plus larger n,
  reference-engine absolute-time cases, and raised obs levels
  (``trace``/``record``) whose overhead trajectory is worth tracking.

Every case carries generous **time and memory budgets** (roughly 10×
the expected cost on a laptop) — they exist to catch pathological
blowups on any machine, while the machine-*portable* regression signal
is the paired speedup ratio gated against the previous history bucket,
within the case's own ``speedup_threshold``.

Both tiers also carry the **pinned cases** on the committed-baseline
Algorithm-1 instance (:func:`regression_gate_scenario`): the fast tier
paired against the reference engine with a tight 25% speedup floor, and
one case per instrumented obs level paired against the same engine
without that instrumentation, held to :data:`OVERHEAD_BUDGETS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..registry import AlgorithmSpec, get_spec

__all__ = [
    "BenchCase",
    "OVERHEAD_BUDGETS",
    "TIERS",
    "build_scenario",
    "case_rows",
    "default_matrix",
    "expand",
    "regression_gate_scenario",
    "select",
]

#: Named tiers, cheapest first.  Every quick case is also a full case.
TIERS = ("quick", "full")

#: Fleet axes (what the default matrix expands).
FAMILIES = ("benign", "adversarial", "lossy", "churn")
ENGINES = ("reference", "fast")
OBS_LEVELS = ("timeline", "trace", "record", "stream")

#: Wall-clock ceiling of an instrumented run over the same engine's run
#: without the instrumentation (the ``overhead`` gate), by obs level.
#: ``"stream"`` is fleet-local: ``obs="timeline"`` plus an in-process
#: :class:`~repro.obs.TelemetryBus`, paired against the bus-free run.
OVERHEAD_BUDGETS = {"trace": 3.0, "record": 3.0, "stream": 1.15}

#: The tag marking the cases on :func:`regression_gate_scenario`.
PINNED = "pinned"

#: Matrix knobs: the specs worth tracking continuously (one per
#: implementation layer + the flooding baseline that runs on every
#: family), the per-tier sizes, and the fault parameters.
_ALGORITHMS = ("algorithm1", "algorithm2", "flood-all")
_QUICK_N = 48
_FULL_NS = (48, 160)
_K = 4
_SEED = 2013
_LOSS_P = 0.1
_CHURN_RATE = 0.02
_FAULT_SEED = 11


@dataclass(frozen=True)
class BenchCase:
    """One benchmark-matrix cell — everything needed to reproduce it.

    ``baseline`` names the ``(engine, obs)`` run the case is *paired*
    against with interleaved samples; ``None`` records absolute
    wall-clock only (never gated across machines).  A baseline on
    another engine records ``speedup`` (baseline median / case median),
    a same-machine ratio and therefore the machine-portable metric the
    gate tracks, within ``speedup_threshold`` of the previous bucket.  A
    baseline on the *same* engine is an overhead pair: it records
    ``overhead`` (case median / baseline median), gated against
    :data:`OVERHEAD_BUDGETS` for the case's obs level.
    """

    algorithm: str
    family: str
    n: int
    engine: str
    obs: str = "timeline"
    k: int = _K
    seed: int = _SEED
    baseline: Optional[Tuple[str, str]] = ("reference", "timeline")
    tiers: Tuple[str, ...] = ("full",)
    budget_ms: float = 5_000.0
    memory_budget_mb: float = 256.0
    speedup_threshold: float = 0.5
    #: extras for special cases (e.g. :data:`PINNED`); must stay
    #: hashable/picklable.
    tags: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def name(self) -> str:
        """Unique, colon-free id (colon is the ``--inject-slowdown``
        separator): ``algorithm_family_nN_engine_obs[_tag…]``."""
        return (
            f"{self.algorithm}_{self.family}_n{self.n}"
            f"_{self.engine}_{self.obs}"
            + "".join(f"_{tag}" for tag in self.tags)
        )

    @property
    def overhead_pair(self) -> bool:
        """Paired against the same engine with less instrumentation."""
        return self.baseline is not None and self.baseline[0] == self.engine

    def row(self) -> Dict[str, object]:
        """Flat dict for ``repro bench --list`` tables."""
        return {
            "case": self.name,
            "algorithm": self.algorithm,
            "family": self.family,
            "n": self.n,
            "engine": self.engine,
            "obs": self.obs,
            "vs": "/".join(self.baseline) if self.baseline else "-",
            "tiers": ",".join(self.tiers),
            "budget_ms": self.budget_ms,
            "mem_mb": self.memory_budget_mb,
        }


def _budget_ms(n: int, engine: str, obs: str) -> float:
    """Generous per-case wall-clock budget for one timed sample.

    ~10× a laptop's expected cost, so the budget only trips on
    pathological blowups (accidental O(n²) round loops, a spin in an obs
    hook), never on a slow CI runner.
    """
    base = 1_500.0 * (n / _QUICK_N) ** 1.5
    if engine == "reference":
        base *= 8.0
    if obs in ("trace", "record"):
        base *= 3.0
    return round(base, 1)


def _speedup_threshold(tags: Tuple[str, ...]) -> float:
    """Allowed fractional speedup drop vs the previous bucket.

    50% on the small matrix cells, whose runs take a few ms and are
    noisy on shared CI runners, so the gate catches cliffs, not noise;
    25% on the pinned n=100 instance, whose reference run is long enough
    to hold a tight floor.
    """
    return 0.25 if PINNED in tags else 0.5


def _memory_budget_mb(n: int, obs: str) -> float:
    """Generous traced-allocation budget (Python-heap peak, tracemalloc)."""
    base = 96.0 + 0.05 * n
    if obs == "record":
        base *= 2.0
    return round(base, 1)


def _case(
    spec: AlgorithmSpec,
    family: str,
    n: int,
    engine: str,
    obs: str,
    tiers: Tuple[str, ...],
    baseline: Optional[Tuple[str, str]],
    k: int = _K,
    seed: int = _SEED,
    tags: Tuple[str, ...] = (),
) -> BenchCase:
    return BenchCase(
        algorithm=spec.name,
        family=family,
        n=n,
        engine=engine,
        obs=obs,
        k=k,
        seed=seed,
        baseline=baseline,
        tiers=tiers,
        budget_ms=_budget_ms(n, engine, obs),
        memory_budget_mb=_memory_budget_mb(n, obs),
        speedup_threshold=_speedup_threshold(tags),
        tags=tags,
    )


def _pinned_cases() -> List[BenchCase]:
    """The per-PR cases on :func:`regression_gate_scenario`: the fast
    tier against the reference engine, then each :data:`OVERHEAD_BUDGETS`
    level against the same engine without its instrumentation."""
    spec = get_spec("algorithm1")
    pairs = [("timeline", ("reference", "timeline"))] + [
        (obs, ("fast", "timeline" if obs == "stream" else "off"))
        for obs in OVERHEAD_BUDGETS
    ]
    return [
        _case(spec, "benign", 100, "fast", obs, ("quick", "full"), baseline,
              k=8, seed=47, tags=(PINNED,))
        for obs, baseline in pairs
    ]


def default_matrix() -> List[BenchCase]:
    """Expand the fleet's axes into every valid case, tiers assigned.

    Validity is registry-driven: a (spec, family) pair is skipped unless
    the spec declares the family (``AlgorithmSpec.families``).
    """
    cases: List[BenchCase] = []
    for name in _ALGORITHMS:
        spec = get_spec(name)
        for family in FAMILIES:
            if family not in spec.families:
                continue
            for n in _FULL_NS:
                for engine in ENGINES:
                    if engine == "reference":
                        # absolute wall-clock context, nightly only
                        cases.append(_case(spec, family, n, engine,
                                           "timeline", ("full",), None))
                        continue
                    tiers = (
                        ("quick", "full")
                        if n == _QUICK_N
                        else ("full",)
                    )
                    cases.append(_case(spec, family, n, engine,
                                       "timeline", tiers,
                                       ("reference", "timeline")))
            # raised obs levels: track telemetry overhead trajectories on
            # the benign fast path (one engine is enough for a ratio)
            for obs in ("trace", "record"):
                if family == "benign":
                    cases.append(_case(spec, family, _QUICK_N, "fast", obs,
                                       ("full",), ("reference", obs)))
    return cases + _pinned_cases()


def expand(tier: Optional[str] = None,
           matrix: Optional[Sequence[BenchCase]] = None) -> List[BenchCase]:
    """The matrix filtered to one named tier (``None`` = every case)."""
    if tier is not None and tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; known: {', '.join(TIERS)}")
    cases = list(default_matrix() if matrix is None else matrix)
    if tier is None:
        return cases
    return [case for case in cases if tier in case.tiers]


def select(names: Sequence[str],
           matrix: Optional[Sequence[BenchCase]] = None) -> List[BenchCase]:
    """Resolve case names against the matrix; unknown names raise."""
    cases = list(default_matrix() if matrix is None else matrix)
    by_name = {case.name: case for case in cases}
    missing = [name for name in names if name not in by_name]
    if missing:
        raise KeyError(
            f"unknown fleet case(s) {missing}; see 'repro bench --list'"
        )
    return [by_name[name] for name in names]


def case_rows(cases: Sequence[BenchCase]) -> List[Dict[str, object]]:
    """``--list`` table rows for a set of cases."""
    return [case.row() for case in cases]


# -- scenario construction ----------------------------------------------------

@lru_cache(maxsize=64)
def _base_scenario(kind: str, n: int, k: int, seed: int):
    """Deterministic base scenario for one matrix cell, memoized so
    engine siblings of the same cell share one build per process.

    Builders run unverified (``verify=False``): the generators are
    property-tested, and a fleet re-verifying every cell would time the
    checkers, not the engines.
    """
    from ..experiments.scenarios import scenario_for

    return scenario_for(kind, n0=n, k=k, seed=seed, verify=False)


def build_scenario(case: BenchCase):
    """The scenario one case runs on — deterministic in the case alone."""
    from ..experiments.scenarios import (
        churn_scenario,
        default_kind,
        lossy_scenario,
    )

    if PINNED in case.tags:
        return regression_gate_scenario()
    if case.family == "adversarial":
        return _base_scenario("adversarial", case.n, case.k, case.seed)
    base = _base_scenario(default_kind(get_spec(case.algorithm)),
                          case.n, case.k, case.seed)
    if case.family == "lossy":
        return lossy_scenario(base, _LOSS_P, seed=_FAULT_SEED)
    if case.family == "churn":
        return churn_scenario(base, _CHURN_RATE, seed=_FAULT_SEED)
    return base


# -- the pinned instance ------------------------------------------------------

@lru_cache(maxsize=1)
def regression_gate_scenario():
    """The committed-baseline Algorithm-1 instance of the pinned cases:
    ``hinet_interval(n0=100, θ=30, k=8, α=5, L=2, seed=47)``, 126 rounds
    and 3498 tokens on every tier (pinned in
    ``tests/test_regression_pins.py``)."""
    from ..experiments.scenarios import hinet_interval_scenario

    return hinet_interval_scenario(
        n0=100, theta=30, k=8, alpha=5, L=2, seed=47, verify=False
    )

"""Declarative algorithm registry: runs as data, not hand-written helpers.

Every dissemination algorithm the repo implements is described by one
:class:`AlgorithmSpec` — its canonical name, the scenario parameters it
consumes, the model class its guarantee assumes, its theorem-derived
round budget, and how to build the per-node factory.  The implementation
packages register their specs *at import*: :mod:`repro.core.specs`,
:mod:`repro.baselines.specs` and :mod:`repro.multihop.specs` each call
:func:`register` when loaded, and every lookup below imports them first,
so the registry is populated whatever the caller imported.

Consumers never hardcode algorithm lists again: the experiment layer
resolves specs by name (``execute("algorithm1", scenario)``), the CLI
enumerates them (``repro list-algorithms``), and the result cache keys
runs by ``(spec name, spec version, scenario content, engine,
overrides)``.  Adding an algorithm is one ``register(AlgorithmSpec(...))``
call — sweeps, tables, Pareto frontiers, replication and the CLI pick it
up with no further wiring.

The module is deliberately dependency-light (no imports from ``sim`` or
``experiments``) so any layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "AlgorithmSpec",
    "RunPlan",
    "all_specs",
    "get_spec",
    "register",
    "spec_names",
]


@dataclass
class RunPlan:
    """A fully-resolved execution plan produced by :attr:`AlgorithmSpec.plan`.

    Attributes
    ----------
    factory:
        The engine node factory, ``factory(node, k, initial) -> NodeAlgorithm``.
    max_rounds:
        The round budget this run is entitled to (the theorem bound for
        guaranteed algorithms, a measurement horizon for best-effort ones).
    key_params:
        The resolved, JSON-scalar algorithm parameters (``T``, ``M``,
        seeds, flags …) — exactly what the result cache must key on so a
        parameter change invalidates the cached cell.
    stop_when_complete:
        Default omniscient-stop behaviour for this algorithm (best-effort
        baselines are measured to completion; guaranteed ones run their
        full bound).  An explicit ``stop_when_complete=`` argument to
        ``execute`` overrides it.
    label:
        Row label for this concrete parameterisation (e.g. ``"3-active
        flood"``); defaults to the spec's display name.
    phase_length:
        The algorithm's phase length ``T`` in rounds, when it runs in
        phases (``None`` otherwise).  Consumed by the observability
        layer: phase-aware provenance queries
        (:meth:`repro.obs.CausalTrace.phase_of`) and the per-phase
        head-progress monitor.
    progress_alpha:
        The per-phase progress parameter α the algorithm's guarantee
        promises each stable head (Theorem 1); ``None`` when the
        algorithm makes no such claim.  Together with ``phase_length``
        this arms :class:`repro.obs.HeadProgressMonitor`.
    """

    factory: Callable
    max_rounds: int
    key_params: Dict[str, object] = field(default_factory=dict)
    stop_when_complete: bool = False
    label: Optional[str] = None
    phase_length: Optional[int] = None
    progress_alpha: Optional[int] = None


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declarative description of one runnable dissemination algorithm.

    Attributes
    ----------
    name:
        Canonical registry key (kebab-case, e.g. ``"klo-interval"``).
    display_name:
        Human-readable label used in result tables.
    family:
        Implementation layer: ``"core"`` (the paper's algorithms),
        ``"baseline"`` (related work), or ``"multihop"`` (extensions).
    guarantee:
        ``"guaranteed"`` — completes within its bound on its model class —
        or ``"best-effort"``.
    model_class:
        The dynamic-network model the guarantee assumes (informational;
        surfaced by ``repro list-algorithms``).
    required_params:
        Scenario ``params`` keys the plan consumes; validated before
        execution so a mis-matched scenario fails with a clear error.
    plan:
        ``plan(scenario, **overrides) -> RunPlan``.  Derives the round
        budget from the scenario's model parameters exactly as the
        corresponding theorem prescribes and builds the node factory.
    overrides:
        Keyword overrides the plan accepts (e.g. ``("rounds", "seed")``);
        anything else passed to ``execute`` is rejected.
    version:
        Bumped on any semantic change to the algorithm or its plan;
        part of every cache key, so stale results can never be replayed.
    fastpath:
        Whether the factory advertises a vectorised kernel
        (:mod:`repro.sim.fastpath`) via its ``fastpath`` tag, which the
        vectorised tier (``engine="fast"``) runs.
    seeded:
        Whether the algorithm itself consumes randomness (gossip, RLNC);
        such specs accept a ``seed`` override that joins the cache key.
    families:
        Scenario families (:attr:`repro.experiments.Scenario.family`) the
        spec is validated against: ``"benign"`` is mandatory, and most
        specs also tolerate ``"lossy"`` and ``"churn"`` (the engine-level
        link seam degrades them gracefully).  ``"adversarial"`` is opted
        into only by algorithms whose round budget is meaningful on
        materialized lower-bound traces.  Surfaced as a column by
        ``repro list-algorithms``.
    description:
        One-line summary for ``repro list-algorithms``.
    """

    name: str
    display_name: str
    family: str
    guarantee: str
    model_class: str
    required_params: Tuple[str, ...]
    plan: Callable[..., RunPlan]
    overrides: Tuple[str, ...] = ()
    version: int = 1
    fastpath: bool = False
    seeded: bool = False
    families: Tuple[str, ...] = ("benign", "lossy", "churn")
    description: str = ""

    def __post_init__(self) -> None:
        if self.family not in ("core", "baseline", "multihop"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.guarantee not in ("guaranteed", "best-effort"):
            raise ValueError(f"unknown guarantee {self.guarantee!r}")
        if "benign" not in self.families:
            raise ValueError(
                f"{self.name!r}: families must include 'benign', "
                f"got {self.families!r}"
            )
        unknown_fams = set(self.families) - {
            "benign", "lossy", "churn", "adversarial"
        }
        if unknown_fams:
            raise ValueError(
                f"{self.name!r}: unknown scenario families {sorted(unknown_fams)}"
            )

    def validate_scenario(self, scenario) -> None:
        """Raise unless the scenario fits: family supported, params present."""
        fam = getattr(scenario, "family", "benign")
        if fam not in self.families:
            raise ValueError(
                f"scenario {scenario.name!r} is of family {fam!r}, which "
                f"{self.name!r} does not support "
                f"(supported: {', '.join(self.families)})"
            )
        missing = [p for p in self.required_params if p not in scenario.params]
        if missing:
            raise KeyError(
                f"scenario {scenario.name!r} lacks parameter(s) "
                f"{', '.join(repr(m) for m in missing)} required by "
                f"{self.name!r} (model class {self.model_class}; "
                f"available: {sorted(scenario.params)})"
            )

    def envelope(self):
        """The spec's analytical :class:`~repro.analysis.CostEnvelope`.

        Imported lazily so the registry stays dependency-light; returns
        ``None`` when no envelope is registered (or sympy is absent).
        """
        try:
            from .analysis import envelope_for
        except ImportError:  # pragma: no cover - sympy is a declared dep
            return None
        return envelope_for(self.name)

    def row(self) -> Dict[str, object]:
        """Flat dict for ``repro list-algorithms`` output."""
        env = self.envelope()
        phase_length = alpha = bound = "-"
        if env is not None:
            import sympy

            bound = f"{env.kind}: {sympy.sstr(env.rounds)}"
            if env.phase_length is not None:
                phase_length = sympy.sstr(env.phase_length)
            if env.alpha is not None:
                alpha = sympy.sstr(env.alpha)
        return {
            "name": self.name,
            "family": self.family,
            "guarantee": self.guarantee,
            "model_class": self.model_class,
            "requires": ",".join(self.required_params) or "-",
            "overrides": ",".join(self.overrides) or "-",
            "fastpath": self.fastpath,
            "families": ",".join(self.families),
            "phase_length": phase_length,
            "alpha": alpha,
            "bound": bound,
            "version": self.version,
        }


_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add a spec to the registry; duplicate names are an error.

    Returns the spec so registration modules can also re-export it.
    """
    if spec.name in _REGISTRY:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    """Import the spec modules of every implementation layer.

    Normally a no-op — the package ``__init__`` files import their
    ``specs`` modules — but guards consumers that import a submodule
    directly without going through the package.
    """
    import repro.baselines.specs  # noqa: F401
    import repro.core.specs  # noqa: F401
    import repro.multihop.specs  # noqa: F401


def get_spec(name: str) -> AlgorithmSpec:
    """Resolve a spec by canonical name (``_`` and ``-`` interchangeable)."""
    _ensure_registered()
    key = name.strip().lower().replace("_", "-")
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"no registered algorithm {name!r} "
            f"(known: {', '.join(spec_names())})"
        ) from None


def all_specs() -> List[AlgorithmSpec]:
    """Every registered spec, sorted by (family, name)."""
    _ensure_registered()
    return sorted(_REGISTRY.values(), key=lambda s: (s.family, s.name))


def spec_names() -> List[str]:
    """Sorted canonical names of all registered algorithms."""
    _ensure_registered()
    return sorted(_REGISTRY)

"""repro — reproduction of *Efficient Information Dissemination in Dynamic
Networks* (Yang, Wu, Chen, Zhang; ICPP 2013).

The paper introduces the (T, L)-HiNet hierarchical dynamic-network model
and two cluster-based k-token dissemination algorithms that cut
communication cost roughly in half versus Kuhn–Lynch–Oshman's flat
algorithms at similar-or-better round counts.  This library provides:

* :mod:`repro.sim` — a synchronous round-based distributed simulator;
* :mod:`repro.graphs` — TVG/CTVG models, Definitions 2–8 as checkable
  properties, and verified scenario generators;
* :mod:`repro.mobility` — random-waypoint + unit-disk workloads;
* :mod:`repro.clustering` — head election, gateways, LCC maintenance;
* :mod:`repro.core` — Algorithms 1 and 2 plus the Table 2 cost model;
* :mod:`repro.baselines` — KLO, flooding, gossip, network coding;
* :mod:`repro.obs` — observability: per-round progress timelines,
  causal provenance tracing, runtime theorem-invariant monitors,
  cross-run percentile aggregation, wall-clock phase profiling, and
  JSONL event export;
* :mod:`repro.experiments` — scenario builders, runners, and the
  table/figure reproduction harness.

Quickstart
----------
>>> from repro.experiments import execute, hinet_interval_scenario
>>> scenario = hinet_interval_scenario(n0=60, theta=18, k=4, alpha=3, L=2, seed=1)
>>> ours = execute("algorithm1", scenario)
>>> theirs = execute("klo-interval", scenario)
>>> ours.complete and ours.tokens_sent < theirs.tokens_sent
True
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = [
    "Profiler",
    "Role",
    "RunTimeline",
    "__version__",
    "aggregation",
    "baselines",
    "clustering",
    "core",
    "energy",
    "experiments",
    "graphs",
    "mobility",
    "multihop",
    "obs",
    "sim",
]

#: Top-level names that live in a submodule, not a subpackage of their own.
_REEXPORTS = {"Profiler": ".obs", "RunTimeline": ".obs", "Role": ".roles"}


def __getattr__(name):
    # PEP 562: each subpackage, and numpy with it, loads on first access,
    # so ``import repro`` costs only this module.
    if name in _REEXPORTS:
        value = getattr(import_module(_REEXPORTS[name], __name__), name)
    elif name in __all__:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Experiment harness: verified scenarios, runners, tables, figures, sweeps.

The benchmark suite under ``benchmarks/`` is a thin shell over this
package — every paper table/figure and every extension sweep has one
function here that regenerates it.  Algorithm execution is unified:
everything flows through :func:`~repro.experiments.runner.execute`
resolving specs from :mod:`repro.registry`, and every experiment accepts
a ``cache`` (see :class:`~repro.experiments.cache.ResultCache`) that
makes re-runs and interrupted sweeps resume from disk.
"""

from importlib import import_module

#: submodule -> the public names it exports here
_EXPORTS = {
    "cache": ("ResultCache", "resolve_cache", "scenario_fingerprint"),
    "emdg_study": ("emdg_cluster_study",),
    "figures": ("fig1_example_network", "fig2_definition_lattice",
                "fig3_walkthrough"),
    "parallel": ("parallel_map",),
    "pareto": ("dissemination_pareto", "pareto_frontier"),
    "replication": ("MetricSummary", "replicate", "summarize"),
    "report": ("format_records", "format_table", "records_to_markdown"),
    "validation": ("Lemma2Record", "check_comm_budget", "check_lemma2",
                   "check_theorem1", "check_theorem2", "check_theorem3"),
    "runner": ("RunRecord", "execute"),
    "scenarios": ("Scenario", "dhop_scenario", "hinet_interval_scenario",
                  "hinet_one_scenario", "klo_interval_scenario",
                  "one_interval_scenario"),
    "sweeps": ("sweep_alpha_L", "sweep_k", "sweep_n", "sweep_reaffiliation"),
    "tables": ("analytic_table3", "simulated_table3"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "Lemma2Record",
    "MetricSummary",
    "ResultCache",
    "RunRecord",
    "Scenario",
    "analytic_table3",
    "check_comm_budget",
    "check_lemma2",
    "check_theorem1",
    "check_theorem2",
    "check_theorem3",
    "dhop_scenario",
    "dissemination_pareto",
    "emdg_cluster_study",
    "execute",
    "parallel_map",
    "pareto_frontier",
    "replicate",
    "resolve_cache",
    "scenario_fingerprint",
    "summarize",
    "fig1_example_network",
    "fig2_definition_lattice",
    "fig3_walkthrough",
    "format_records",
    "format_table",
    "hinet_interval_scenario",
    "hinet_one_scenario",
    "klo_interval_scenario",
    "one_interval_scenario",
    "records_to_markdown",
    "simulated_table3",
    "sweep_alpha_L",
    "sweep_k",
    "sweep_n",
    "sweep_reaffiliation",
]


def __getattr__(name):
    # PEP 562, as in ``repro/__init__``: each submodule loads on first
    # access, so importing the cache and runner path skips the tables,
    # figures and sweeps stack.
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

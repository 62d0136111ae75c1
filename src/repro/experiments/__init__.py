"""Experiment harness: verified scenarios, runners, tables, figures, sweeps.

The benchmark suite under ``benchmarks/`` is a thin shell over this
package — every paper table/figure and every extension sweep has one
function here that regenerates it.  Algorithm execution is unified:
everything flows through :func:`~repro.experiments.runner.execute`
resolving specs from :mod:`repro.registry`, and every experiment accepts
a ``cache`` (see :class:`~repro.experiments.cache.ResultCache`) that
makes re-runs and interrupted sweeps resume from disk.
"""

from .cache import ResultCache, resolve_cache, scenario_fingerprint
from .emdg_study import emdg_cluster_study
from .figures import fig1_example_network, fig2_definition_lattice, fig3_walkthrough
from .grid import grid_cells, grid_sweep
from .parallel import parallel_map
from .pareto import dissemination_pareto, pareto_frontier
from .replication import MetricSummary, replicate, replicate_algorithm, summarize
from .report import format_records, format_table, records_to_markdown
from .validation import (
    Lemma2Record,
    check_comm_budget,
    check_lemma2,
    check_theorem1,
    check_theorem2,
    check_theorem3,
)
from .runner import (
    RunRecord,
    execute,
    run_algorithm1,
    run_algorithm1_stable,
    run_algorithm2,
    run_flood_all,
    run_flood_new,
    run_gossip,
    run_kactive,
    run_klo_interval,
    run_klo_one,
    run_netcoding,
)
from .scenarios import (
    Scenario,
    dhop_scenario,
    hinet_interval_scenario,
    hinet_one_scenario,
    klo_interval_scenario,
    one_interval_scenario,
)
from .sweeps import sweep_alpha_L, sweep_k, sweep_n, sweep_reaffiliation
from .tables import analytic_table2, analytic_table3, simulated_table3

__all__ = [
    "Lemma2Record",
    "MetricSummary",
    "ResultCache",
    "RunRecord",
    "Scenario",
    "analytic_table2",
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
    "grid_cells",
    "grid_sweep",
    "parallel_map",
    "pareto_frontier",
    "replicate",
    "replicate_algorithm",
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
    "run_algorithm1",
    "run_algorithm1_stable",
    "run_algorithm2",
    "run_flood_all",
    "run_flood_new",
    "run_gossip",
    "run_kactive",
    "run_klo_interval",
    "run_klo_one",
    "run_netcoding",
    "simulated_table3",
    "sweep_alpha_L",
    "sweep_k",
    "sweep_n",
    "sweep_reaffiliation",
]

"""Continuous benchmark fleet: matrixed measurement, history, trends, gates.

``repro.bench`` is the repo's one benchmark gate: a declarative
benchmark matrix over {algorithm spec × scenario family × n × engine
tier × obs level} (:mod:`~repro.bench.matrix`), executed through the one
:func:`repro.experiments.runner.execute` pipeline
(:mod:`~repro.bench.runner`), persisted as an append-only commit-keyed
time series in ``BENCH_engine.json`` (:mod:`~repro.bench.history`),
rendered as cross-commit trend dashboards (:mod:`~repro.bench.trend`) and
gated case by case (:func:`~repro.bench.runner.gate_fleet`): every
``FAIL:`` line names the case and its engine, and an ``equivalence`` or
``counter`` failure comes with the case's engine-divergence report
(:func:`repro.obs.diff_engines`: first diverging round and node).

The CLI front end is ``repro bench`` (``--quick`` per-PR tier, ``--full``
nightly tier, ``--list`` to scope the matrix without running, ``--report``
for the trend dashboard); CI runs it as the ``bench-fleet`` job.  Both
tiers include the pinned cases on the committed-baseline Algorithm-1
instance: its fast⇄reference speedup floor and the ``trace``/``record``/
``stream`` overhead budgets.
"""

from .history import (
    current_commit,
    default_bench_path,
    load_bench,
    ordered_history,
    previous_bucket,
    record_bucket,
    time_ms,
    time_ms_paired,
)
from .matrix import BenchCase, build_scenario, default_matrix, expand, select
from .runner import (
    CaseResult,
    GateViolation,
    equivalent,
    gate_fleet,
    measure_case,
    run_fleet,
)
from .trend import render_trend, trend_series

__all__ = [
    "BenchCase",
    "CaseResult",
    "GateViolation",
    "build_scenario",
    "current_commit",
    "default_bench_path",
    "default_matrix",
    "equivalent",
    "expand",
    "gate_fleet",
    "load_bench",
    "measure_case",
    "ordered_history",
    "previous_bucket",
    "record_bucket",
    "render_trend",
    "run_fleet",
    "select",
    "time_ms",
    "time_ms_paired",
    "trend_series",
]

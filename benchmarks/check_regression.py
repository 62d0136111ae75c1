#!/usr/bin/env python
"""Benchmark-regression gate over ``BENCH_engine.json``.

Re-runs the recorded engine-benchmark harness and fails (exit 1) if any
*machine-portable* tracked metric regresses against the committed
baseline:

* deterministic counters (``rounds``, ``tokens_sent``) must match the
  baseline **exactly** — any drift means engine semantics changed;
* the fast path must still be *bit-identical* to the reference engine
  (outputs, metrics, and the telemetry timeline);
* the fast/reference **speedup ratio** — measured fresh, both engines on
  the same machine in the same process — must stay within ``--threshold``
  (default 25%) of the baseline's recorded ratio;
* the **n = 10⁴ gate** (``columnar_vs_fast_alg1_n10000``): the
  Algorithm-1 run at n = 10⁴ must reproduce the baseline's counters
  exactly, and ``engine="columnar"`` must stay bit-identical to
  ``engine="fast"`` (two names for the one vectorised round loop, so no
  speed ratio between them is gated);
* the **telemetry overhead budget** (``obs_overhead_trace_vs_off``, a
  synthetic case needing no baseline entry): an ``obs="trace"`` run must
  cost at most ``--obs-budget`` times the ``obs="off"`` run and must not
  change the run's metrics;
* the **recording overhead budget** (``record_overhead_vs_off``,
  likewise baseline-free): an ``obs="record"`` run must cost at most
  ``--record-budget`` times the ``obs="off"`` run, must not change the
  run's metrics, and must actually produce a replayable recording;
* the **streaming overhead budget** (``stream_overhead_vs_off``,
  likewise baseline-free): attaching a live
  :class:`~repro.obs.TelemetryBus` to an ``obs="timeline"`` run may cost
  at most ``--stream-budget`` times the bus-free run, must not change
  any run metric on any engine tier, must publish round events
  byte-identical to the post-hoc ``timeline.events()`` encoding, and
  must drop nothing into an unbounded in-process sink.

On an equivalence failure the gate does not stop at a bare assert: it
re-runs both engines at ``obs="record"``, bisects the recordings to the
first diverging round/node (:func:`repro.obs.diff.diff_recordings`), and
writes the full divergence report to ``--divergence-report`` (CI uploads
it as a workflow artifact).

Absolute wall-clock numbers in the baseline (``*_median_ms``) are *not*
compared: they were recorded on whatever machine last refreshed the file
and do not transfer across hardware.  The speedup ratio does, which is
why it is the tracked performance metric.  Wall-clock-only cases (e.g.
the sweep timing) are skipped with a note.

CI runs this as the ``bench-regression`` job; refresh the baseline with
``python -m pytest benchmarks/bench_engine_throughput.py`` after an
intentional performance change (see docs/performance.md).

``--inject-slowdown-ms N`` adds an artificial sleep inside the timed
fast-path callable — the self-test hook ``tests/test_obs.py`` uses to
prove the gate actually fails on a real slowdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
if str(_HERE) not in sys.path:  # for _bench_json when run as a script
    sys.path.insert(0, str(_HERE))

try:
    import repro  # noqa: F401  — importability probe only
except ImportError:  # uninstalled checkout: fall back to the src layout
    sys.path.insert(0, str(_HERE.parent / "src"))

from _bench_json import BENCH_JSON, time_ms  # noqa: E402  (also wires up sys.path)

from repro.bench.runner import equivalent, measure_ratio  # noqa: E402

Row = Dict[str, object]
CheckResult = Tuple[List[str], List[Row]]


def _row(check: str, baseline: object, measured: object, ok: bool) -> Row:
    return {"check": check, "baseline": baseline, "measured": measured,
            "ok": "ok" if ok else "FAIL"}


def _bench_instance():
    """The shared benchmark instance: scenario + Algorithm-1 factory.

    The scenario is the fleet's :func:`regression_gate_scenario` — one
    frozen construction shared with ``repro bench`` and the ``bench_*``
    scripts, so the gate and its producers can never drift apart.
    """
    from repro.bench.matrix import regression_gate_scenario
    from repro.core.algorithm1 import make_algorithm1_factory

    scenario = regression_gate_scenario()
    T = int(scenario.params["T"])
    return scenario, make_algorithm1_factory(T=T, M=7), 7 * T


def check_algorithm1_full_run(baseline: Dict[str, object], args) -> CheckResult:
    """Re-run the full-run engine case behind ``BENCH_engine.json``."""
    from repro.sim.engine import run
    from repro.sim.linkmodel import link_from_spec

    threshold = args.threshold
    scenario, factory, max_rounds = _bench_instance()
    link = None if scenario.link is None else link_from_spec(scenario.link)

    def go(engine: str):
        return run(
            scenario.trace, factory, k=scenario.k, initial=scenario.initial,
            max_rounds=max_rounds, engine=engine, link=link,
        )

    failures: List[str] = []
    rows: List[Row] = []
    ref, fast = go("reference"), go("fast")

    for metric, got in (
        ("rounds", fast.metrics.rounds),
        ("tokens_sent", fast.metrics.tokens_sent),
    ):
        want = baseline.get(metric)
        ok = want is None or got == want
        rows.append(_row(metric, want, got, ok))
        if not ok:
            failures.append(
                f"{metric}: measured {got} != baseline {want} "
                "(deterministic counter drifted — engine semantics changed)"
            )

    identical = equivalent(fast, ref)
    rows.append(_row("fast == reference (outputs+metrics+timeline)",
                     True, identical, identical))
    if not identical:
        failures.append("fast path diverged from the reference engine")
        report_path = _emit_divergence_report(scenario, args)
        failures.append(f"divergence report written to {report_path}")

    ref_stats, fast_stats, speedup = measure_ratio(
        lambda: go("reference"), lambda: go("fast"),
        repeats=args.repeats, inject_ms=args.inject_slowdown_ms,
    )
    base_speedup = float(baseline.get("speedup", 0.0))
    floor = base_speedup * (1.0 - threshold)
    ok = speedup >= floor
    rows.append(_row(f"speedup (floor {floor:.2f}x)",
                     f"{base_speedup:.2f}x", f"{speedup:.2f}x", ok))
    rows.append(_row("reference_median_ms (not gated)",
                     baseline.get("reference_median_ms"),
                     ref_stats["median_ms"], True))
    rows.append(_row("fast_median_ms (not gated)",
                     baseline.get("fast_median_ms"),
                     fast_stats["median_ms"], True))
    if not ok:
        failures.append(
            f"speedup regressed: {speedup:.2f}x < {floor:.2f}x "
            f"(baseline {base_speedup:.2f}x, threshold {threshold:.0%})"
        )
    return failures, rows


def check_columnar_vs_fast(baseline: Dict[str, object], args) -> CheckResult:
    """The n = 10⁴ gate: exact counters and alias bit-identity.

    Re-runs the recorded Algorithm-1 sweep (clustered star, n=10⁴) under
    both engine names.  Deterministic counters must match the baseline
    exactly and the two names must agree bit-for-bit.  Both names run
    the same round loop, so their speed ratio is 1.0 by construction and
    is not gated; ``columnar_median_ms`` is reported for context.
    """
    from repro.bench.matrix import columnar_gate_instance
    from repro.sim.engine import SynchronousEngine

    net, factory, k, initial, rounds = columnar_gate_instance()

    def go(engine: str):
        return SynchronousEngine(engine=engine).run(net, factory, k,
                                                    initial, rounds)

    failures: List[str] = []
    rows: List[Row] = []
    fast, col = go("fast"), go("columnar")

    for metric, got in (
        ("rounds", col.metrics.rounds),
        ("tokens_sent", col.metrics.tokens_sent),
    ):
        want = baseline.get(metric)
        ok = want is None or got == want
        rows.append(_row(f"columnar {metric}", want, got, ok))
        if not ok:
            failures.append(
                f"columnar {metric}: measured {got} != baseline {want} "
                "(deterministic counter drifted — engine semantics changed)"
            )

    identical = equivalent(col, fast)
    rows.append(_row("columnar == fast (outputs+metrics+timeline)",
                     True, identical, identical))
    if not identical:
        failures.append("engine='columnar' diverged from engine='fast'")

    col_stats = time_ms(lambda: go("columnar"), repeats=args.repeats)
    rows.append(_row("columnar_median_ms (not gated)",
                     baseline.get("columnar_median_ms"),
                     col_stats["median_ms"], True))
    return failures, rows


def _emit_divergence_report(scenario, args) -> str:
    """Pinpoint a fast⇄reference divergence and write the full report.

    Re-runs the failing instance on both engines at ``obs="record"`` via
    :func:`repro.obs.diff_engines` — the same probe ``repro diff
    --engines`` and the fleet's bisection use — and bisects the two
    recordings to the first diverging round and node.  The report is
    printed and written to ``--divergence-report`` (uploaded as a CI
    artifact when the gate fails).
    """
    from repro.obs import diff_engines

    report = diff_engines("algorithm1", scenario)
    text = report.format()
    print()
    print(text)
    path = Path(args.divergence_report)
    path.write_text(text + "\n")
    return str(path)


def check_record_overhead(baseline: Dict[str, object], args) -> CheckResult:
    """Recording overhead budget: ``obs="record"`` vs ``obs="off"``.

    Record/replay must stay cheap enough to flip on whenever two runs
    disagree: the recorded fast-path run may take at most
    ``--record-budget`` times the unobserved run (a machine-portable
    ratio, measured fresh both ways in this process — no baseline entry
    needed), must not change the run's metrics, and must actually carry a
    replayable recording whose final state matches the run's outputs.
    """
    from repro.sim.engine import run

    scenario, factory, max_rounds = _bench_instance()

    def go(obs: str):
        return run(
            scenario.trace, factory, k=scenario.k, initial=scenario.initial,
            max_rounds=max_rounds, engine="fast", obs=obs,
        )

    # correctness first: recording must not change the run
    off, recorded = go("off"), go("record")
    same = off.metrics == recorded.metrics
    failures: List[str] = []
    rows: List[Row] = [
        _row("obs=record metrics == obs=off metrics", True, same, same)
    ]
    if not same:
        failures.append("obs='record' changed the run's metrics")
    recording = recorded.recording
    replays = (
        recording is not None
        and recording.rounds_recorded == recorded.metrics.rounds
        and recording.state_at(recording.rounds_recorded - 1)
        == recorded.outputs
    )
    rows.append(_row("recording replays to the run's outputs",
                     True, replays, replays))
    if not replays:
        failures.append(
            "obs='record' run is missing a recording or its replayed final "
            "state does not match the run's outputs"
        )

    off_stats, rec_stats, _ = measure_ratio(
        lambda: go("off"), lambda: go("record"),
        repeats=args.repeats, inject_ms=args.inject_record_overhead_ms,
    )
    ratio = rec_stats["median_ms"] / off_stats["median_ms"]
    ok = ratio <= args.record_budget
    rows.append(_row(f"record overhead (budget {args.record_budget:.1f}x)",
                     f"<= {args.record_budget:.1f}x", f"{ratio:.2f}x", ok))
    if not ok:
        failures.append(
            f"obs='record' overhead blew the budget: {ratio:.2f}x > "
            f"{args.record_budget:.1f}x the obs='off' run"
        )
    return failures, rows


def check_obs_overhead(baseline: Dict[str, object], args) -> CheckResult:
    """Telemetry overhead budget: ``obs="trace"`` vs ``obs="off"``.

    Causal tracing must stay cheap enough to leave on by default in deep
    inspection workflows: the traced fast-path run may take at most
    ``--obs-budget`` times the untraced run (a machine-portable ratio,
    measured fresh both ways in this process — no baseline entry needed).
    A blowout here means trace recording regressed to per-round O(n·k)
    work on rounds where nothing was learned.
    """
    from repro.sim.engine import run

    scenario, factory, max_rounds = _bench_instance()

    def go(obs: str):
        return run(
            scenario.trace, factory, k=scenario.k, initial=scenario.initial,
            max_rounds=max_rounds, engine="fast", obs=obs,
        )

    # correctness first: tracing must not change the run
    off, traced = go("off"), go("trace")
    same = off.metrics == traced.metrics
    failures: List[str] = []
    rows: List[Row] = [
        _row("obs=trace metrics == obs=off metrics", True, same, same)
    ]
    if not same:
        failures.append("obs='trace' changed the run's metrics")
    covered = len(traced.causal_trace.events) == scenario.n * scenario.k
    rows.append(_row("causal trace covers n*k pairs", True, covered, covered))
    if not covered:
        failures.append("causal trace is missing (node, token) events")

    off_stats, trace_stats, _ = measure_ratio(
        lambda: go("off"), lambda: go("trace"),
        repeats=args.repeats, inject_ms=args.inject_obs_overhead_ms,
    )
    ratio = trace_stats["median_ms"] / off_stats["median_ms"]
    ok = ratio <= args.obs_budget
    rows.append(_row(f"obs overhead (budget {args.obs_budget:.1f}x)",
                     f"<= {args.obs_budget:.1f}x", f"{ratio:.2f}x", ok))
    if not ok:
        failures.append(
            f"obs='trace' overhead blew the budget: {ratio:.2f}x > "
            f"{args.obs_budget:.1f}x the obs='off' run"
        )
    return failures, rows


def check_stream_overhead(baseline: Dict[str, object], args) -> CheckResult:
    """Streaming overhead budget: timeline run + bus vs timeline run.

    The telemetry bus must stay cheap enough to leave attached on every
    observed run: a fast-path ``obs="timeline"`` run publishing every
    round to an in-process sink may take at most ``--stream-budget``
    times the same run without a bus (a machine-portable ratio, measured
    fresh both ways in this process — no baseline entry needed).

    Correctness first, across all three engine tiers: attaching the bus
    must not change a single run metric, the live round events must be
    byte-identical to the post-hoc ``timeline.events()`` encoding, and
    nothing may be dropped (an unbounded in-process sink never sheds).
    """
    from repro.obs import BufferSink, TelemetryBus
    from repro.sim.engine import run

    scenario, factory, max_rounds = _bench_instance()

    def go(engine: str, stream=None, obs: str = "timeline"):
        return run(
            scenario.trace, factory, k=scenario.k, initial=scenario.initial,
            max_rounds=max_rounds, engine=engine, obs=obs, stream=stream,
        )

    failures: List[str] = []
    rows: List[Row] = []
    for engine in ("reference", "fast", "columnar"):
        plain = go(engine)
        sink = BufferSink()
        bus = TelemetryBus([sink])
        streamed = go(engine, stream=bus)
        bus.close()

        same = plain.metrics == streamed.metrics
        rows.append(_row(f"{engine}: streamed metrics == plain metrics",
                         True, same, same))
        if not same:
            failures.append(
                f"attaching the telemetry bus changed the {engine} "
                "engine's run metrics"
            )
        live = sink.of_type("round")
        posthoc = [e for e in streamed.timeline.events()
                   if e["type"] == "round"]
        match = live == posthoc
        rows.append(_row(f"{engine}: live events == timeline.events()",
                         True, match, match))
        if not match:
            failures.append(
                f"{engine}: live round events diverged from the post-hoc "
                "timeline encoding (prefix stability broken)"
            )
        rows.append(_row(f"{engine}: stream drops", 0, bus.drops,
                         bus.drops == 0))
        if bus.drops:
            failures.append(
                f"{engine}: unbounded in-process sink dropped "
                f"{bus.drops} event(s)"
            )

    def timed_streamed():
        bus = TelemetryBus([BufferSink()])
        out = go("fast", stream=bus)
        bus.close()
        return out

    plain_stats, stream_stats, _ = measure_ratio(
        lambda: go("fast"), timed_streamed,
        repeats=args.repeats, inject_ms=args.inject_stream_overhead_ms,
    )
    ratio = stream_stats["median_ms"] / plain_stats["median_ms"]
    ok = ratio <= args.stream_budget
    rows.append(_row(f"stream overhead (budget {args.stream_budget:.2f}x)",
                     f"<= {args.stream_budget:.2f}x", f"{ratio:.2f}x", ok))
    if not ok:
        failures.append(
            f"telemetry-bus overhead blew the budget: {ratio:.2f}x > "
            f"{args.stream_budget:.2f}x the bus-free obs='timeline' run"
        )
    return failures, rows


#: Baseline cases this gate knows how to re-run.  Cases absent here carry
#: only absolute wall-clock stats and are skipped (not machine-portable).
CHECKS = {
    "algorithm1_full_run_n100_r126": check_algorithm1_full_run,
    "columnar_vs_fast_alg1_n10000": check_columnar_vs_fast,
}

#: Self-contained checks that need no baseline entry (both sides measured
#: fresh in-process); always selectable by name and run by default.
SYNTHETIC_CHECKS = {
    "obs_overhead_trace_vs_off": check_obs_overhead,
    "record_overhead_vs_off": check_record_overhead,
    "stream_overhead_vs_off": check_stream_overhead,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail if engine benchmarks regressed vs BENCH_engine.json"
    )
    parser.add_argument("--baseline", default=str(BENCH_JSON), metavar="JSON",
                        help="baseline file (default: repo BENCH_engine.json)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional speedup regression "
                        "(default: 0.25)")
    parser.add_argument("--cases", nargs="+", default=None, metavar="NAME",
                        help="only check these baseline cases")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per engine (default: 5)")
    parser.add_argument("--inject-slowdown-ms", type=float, default=0.0,
                        help="testing hook: sleep this long inside the timed "
                        "fast-path callable")
    parser.add_argument("--obs-budget", type=float, default=3.0,
                        help="max allowed obs='trace' / obs='off' wall-clock "
                        "ratio (default: 3.0)")
    parser.add_argument("--inject-obs-overhead-ms", type=float, default=0.0,
                        help="testing hook: sleep this long inside the timed "
                        "obs='trace' callable")
    parser.add_argument("--record-budget", type=float, default=3.0,
                        help="max allowed obs='record' / obs='off' wall-clock "
                        "ratio (default: 3.0)")
    parser.add_argument("--inject-record-overhead-ms", type=float, default=0.0,
                        help="testing hook: sleep this long inside the timed "
                        "obs='record' callable")
    parser.add_argument("--stream-budget", type=float, default=1.15,
                        help="max allowed streamed / bus-free obs='timeline' "
                        "wall-clock ratio (default: 1.15)")
    parser.add_argument("--inject-stream-overhead-ms", type=float,
                        default=0.0,
                        help="testing hook: sleep this long inside the timed "
                        "streamed callable")
    parser.add_argument("--divergence-report", default="divergence_report.txt",
                        metavar="PATH",
                        help="where to write the fast⇄reference divergence "
                        "report on an equivalence failure "
                        "(default: divergence_report.txt)")
    args = parser.parse_args(argv)

    data = json.loads(Path(args.baseline).read_text())
    cases: Dict[str, Dict[str, object]] = data.get("cases", {})
    selected = (args.cases if args.cases
                else sorted(cases) + sorted(SYNTHETIC_CHECKS))

    failures: List[str] = []
    rows: List[Row] = []
    for name in selected:
        if name in SYNTHETIC_CHECKS:
            print(f"checking {name} ...")
            case_failures, case_rows = SYNTHETIC_CHECKS[name]({}, args)
            failures.extend(case_failures)
            rows.extend(case_rows)
            continue
        if name not in cases:
            failures.append(f"baseline has no case {name!r}")
            continue
        checker = CHECKS.get(name)
        if checker is None:
            print(f"skip {name}: wall-clock-only case (absolute ms is not "
                  "machine-portable)")
            continue
        print(f"checking {name} ...")
        case_failures, case_rows = checker(cases[name], args)
        failures.extend(case_failures)
        rows.extend(case_rows)

    if rows:
        from repro.experiments.report import format_records

        print()
        print(format_records(rows))
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print()
    print(f"OK: {len(rows)} checks passed (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

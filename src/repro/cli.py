"""Command-line interface: ``python -m repro <command>``.

Regenerates any paper table/figure or extension sweep from the shell,
without writing a script:

.. code-block:: console

   $ python -m repro list-algorithms        # the algorithm registry
   $ python -m repro run algorithm1 --n0 40 # any registered algorithm
   $ python -m repro run algorithm1 --events out.jsonl  # streamed JSONL
   $ python -m repro run algorithm1 --live  # terminal dashboard on stderr
   $ python -m repro watch out.jsonl --follow  # tail a streamed run live
   $ python -m repro run algorithm1 --monitor  # live invariant monitors
   $ python -m repro explain algorithm1 --token 2  # causal provenance chain
   $ python -m repro report algorithm1 --replications 20  # progress bands
   $ python -m repro profile algorithm1     # wall-clock phase profiling
   $ python -m repro record algorithm1 --out run.json  # replayable recording
   $ python -m repro replay run.json --at 5 --node 3   # time-travel state
   $ python -m repro diff a.json b.json     # first diverging round/node
   $ python -m repro diff --engines algorithm1  # fast vs reference bisect
   $ python -m repro bench --quick          # per-PR benchmark fleet + gate
   $ python -m repro bench --list           # expanded matrix, budgets, tiers
   $ python -m repro bench --report         # cross-commit trend dashboard
   $ python -m repro table3                 # analytic Table 3 + deviations
   $ python -m repro table3 --simulate      # measured counterpart
   $ python -m repro fig3                   # Algorithm-1 walkthrough
   $ python -m repro sweep-n --sizes 40 80 120
   $ python -m repro mobility --nodes 60 --rounds 80

Every command takes ``--seed`` for reproducibility and prints the same
fixed-width tables the benchmark suite persists.  Simulation commands
also take ``--cache DIR`` (or the ``REPRO_RESULT_CACHE`` environment
variable): runs are keyed content-addressed on disk, so repeating a
command — or resuming an interrupted sweep — replays finished cells
without executing them.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from .registry import AlgorithmSpec

__all__ = ["build_parser", "main"]


def _add_cache_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cache", default=None, metavar="DIR",
        help="result-cache directory (computed cells replay from disk; "
        "defaults to $REPRO_RESULT_CACHE when set)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for testing and docs)."""
    from .experiments.scenarios import SCENARIO_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures from 'Efficient Information "
        "Dissemination in Dynamic Networks' (ICPP 2013).",
    )
    parser.add_argument("--seed", type=int, default=2013,
                        help="master seed for simulated commands")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-algorithms",
                   help="every registered algorithm spec, one row each")

    vm = sub.add_parser(
        "validate-model",
        help="sweep the registry: run every spec on its benign scenario "
        "family and report measured/predicted ratios against the symbolic "
        "Table 2 envelopes (exit 1 if any benign case escapes its bounds)",
    )
    vm.add_argument("--n0", type=int, default=40, help="network size")
    vm.add_argument("--k", type=int, default=5, help="token count")
    vm.add_argument("--engine",
                    choices=["fast", "reference"],
                    default="fast")
    vm.add_argument("--algorithms", nargs="+", default=None, metavar="NAME",
                    help="restrict the sweep to these registry names")
    vm.add_argument("--adversarial", action="store_true",
                    help="also sweep the Haeupler-Kuhn adversarial family "
                    "and report the Omega(nk/log n) floor (never gated)")
    vm.add_argument("--markdown", action="store_true",
                    help="emit a markdown table instead of fixed-width text")
    vm.add_argument("--json", default=None, metavar="PATH",
                    help="also write the full ratio table (with per-role "
                    "token totals) as a repro-envelope-ratios JSON document")
    _add_cache_flag(vm)

    def _add_scenario_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--scenario", choices=("auto", *SCENARIO_KINDS),
                         default="auto",
                         help="scenario family; 'auto' picks the algorithm's "
                         "model class")
        cmd.add_argument("--n0", type=int, default=50, help="network size")
        cmd.add_argument("--theta", type=int, default=None,
                         help="cluster count (default: max(0.3*n0, alpha))")
        cmd.add_argument("--k", type=int, default=5, help="token count")
        cmd.add_argument("--alpha", type=int, default=3,
                         help="stability parameter")
        cmd.add_argument("--L", type=int, default=2, help="backbone hop bound")
        cmd.add_argument("--rounds", type=int, default=None,
                         help="override the round budget (where the spec "
                         "allows)")
        cmd.add_argument("--engine",
                         choices=["fast", "reference"],
                         default="fast")
        cmd.add_argument("--loss", type=float, default=None, metavar="P",
                         help="i.i.d. per-delivery loss probability "
                         "(lossy scenario family)")
        cmd.add_argument("--loss-seed", type=int, default=0,
                         help="seed for the loss link model's hash stream")
        cmd.add_argument("--burst", type=int, default=None, metavar="LEN",
                         help="with --loss: bursty (Gilbert-Elliott style) "
                         "loss in blocks of LEN rounds instead of i.i.d.")
        cmd.add_argument("--churn", type=float, default=None, metavar="RATE",
                         help="per-round per-node crash probability "
                         "(churn scenario family)")
        cmd.add_argument("--churn-seed", type=int, default=0,
                         help="seed for the churn link model's hash stream")
        cmd.add_argument("--adversary", action="store_true",
                         help="shorthand for --scenario adversarial: run on "
                         "a materialized Haeupler-Kuhn lower-bound trace")
        cmd.set_defaults(usage_error=cmd.error)

    def _add_run_scenario_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("algorithm", metavar="ALGORITHM",
                         help="registry name (see list-algorithms)")
        _add_scenario_flags(cmd)

    rn = sub.add_parser(
        "run", help="run one registered algorithm on a generated scenario"
    )
    _add_run_scenario_flags(rn)
    rn.add_argument("--events", default=None, metavar="PATH",
                    help="stream the run's telemetry as JSONL structured "
                    "events (one object per line, written incrementally: "
                    "header first, flushed per round — an interrupted run "
                    "leaves a valid partial file)")
    rn.add_argument("--obs",
                    choices=["timeline", "trace", "record", "profile", "off"],
                    default="timeline",
                    help="telemetry level (default: timeline counters; "
                    "'trace' adds the causal first-learn trace; 'record' "
                    "adds a replayable run recording)")
    rn.add_argument("--monitor", action="store_true",
                    help="attach the spec's runtime invariant monitors and "
                    "report any violations (coverage monotonicity, phase "
                    "progress, round budget, (T,L) stability)")
    rn.add_argument("--live", action="store_true",
                    help="render a live terminal dashboard on stderr while "
                    "the run executes (ANSI in-place on a TTY, periodic "
                    "text lines otherwise)")
    rn.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write a Prometheus-textfile snapshot of the "
                    "stream's counters (updated while running, final at "
                    "exit) for external scrapers")
    rn.add_argument("--stream-decimate", type=int, default=1, metavar="N",
                    help="publish every N-th round to the stream sinks "
                    "(default 1 = every round; the final round is always "
                    "published)")
    _add_cache_flag(rn)

    wt = sub.add_parser(
        "watch",
        help="live terminal view of a streamed --events JSONL file: "
        "progress bars, per-role rates, monitor alerts and worker lag, "
        "following the file as a concurrent run appends to it",
    )
    wt.add_argument("events", metavar="EVENTS_JSONL",
                    help="events file written by 'repro run --events' "
                    "(may still be growing)")
    wt.add_argument("--follow", action="store_true",
                    help="keep watching for new events after EOF until the "
                    "summary footer arrives (or --idle-timeout expires)")
    wt.add_argument("--interval", type=float, default=0.5, metavar="S",
                    help="dashboard refresh / follow poll interval in "
                    "seconds (default: 0.5)")
    wt.add_argument("--idle-timeout", type=float, default=30.0, metavar="S",
                    help="with --follow: give up after S seconds without "
                    "new events (default: 30)")
    wt.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="also maintain a Prometheus-textfile snapshot of "
                    "the watched counters")

    ex = sub.add_parser(
        "explain",
        help="causal provenance: how a token reached a node — per-hop "
        "senders, roles and phases, plus critical path vs the α·L bound",
    )
    _add_run_scenario_flags(ex)
    ex.add_argument("--token", type=int, default=0,
                    help="token id to explain (default: 0)")
    ex.add_argument("--node", type=int, default=None,
                    help="destination node (default: the last node to learn "
                    "the token — the longest wait)")
    _add_cache_flag(ex)

    rp = sub.add_parser(
        "report",
        help="cross-run dashboard: replicate one algorithm across seeds and "
        "render percentile progress bands + per-role message totals",
    )
    _add_run_scenario_flags(rp)
    rp.add_argument("--replications", type=int, default=10,
                    help="independent seeded scenarios to aggregate")
    rp.add_argument("--processes", type=int, default=1,
                    help="worker processes (1 = serial)")
    rp.add_argument("--markdown", action="store_true",
                    help="emit GitHub-flavoured markdown instead of plain text")
    _add_cache_flag(rp)

    pf = sub.add_parser(
        "profile",
        help="profile one algorithm run: wall-clock phases (topology build, "
        "property checks, round loop) plus the per-phase telemetry breakdown",
    )
    _add_run_scenario_flags(pf)

    rc = sub.add_parser(
        "record",
        help="run one algorithm at obs='record' and save the deterministic "
        "RunRecording (replayable with 'replay', comparable with 'diff')",
    )
    _add_run_scenario_flags(rc)
    rc.add_argument("--out", required=True, metavar="PATH",
                    help="write the recording here as JSON")
    rc.add_argument("--chrome", default=None, metavar="PATH",
                    help="also export Chrome trace-event JSON (open in "
                    "chrome://tracing or ui.perfetto.dev)")
    _add_cache_flag(rc)

    rpl = sub.add_parser(
        "replay",
        help="inspect a saved recording: overview, or time-travel to the "
        "state at any round (--at), down to one node's token set (--node)",
    )
    rpl.add_argument("recording", metavar="RECORDING",
                     help="recording JSON written by 'record'")
    rpl.add_argument("--at", type=int, default=None, metavar="ROUND",
                     help="reconstruct state at the end of this round "
                     "(-1 = initial state; default: summary of every round)")
    rpl.add_argument("--node", type=int, default=None, metavar="ID",
                     help="print this node's token set instead of the "
                     "global summary")

    df = sub.add_parser(
        "diff",
        help="compare two recordings (or record fast+reference with "
        "--engines) and bisect to the first diverging round and node; "
        "exit 1 on divergence",
    )
    df.add_argument("recordings", nargs="*", metavar="RECORDING",
                    help="two recording JSON files to compare")
    df.add_argument("--engines", default=None, metavar="ALGORITHM",
                    help="record ALGORITHM fresh on both engines and diff "
                    "them instead of reading files")
    _add_scenario_flags(df)
    df.add_argument("--report", default=None, metavar="PATH",
                    help="also write the divergence report here")

    t2 = sub.add_parser("table2", help="analytic cost model (Table 2)")
    t2.add_argument("--n0", type=int, default=100)
    t2.add_argument("--theta", type=int, default=30)
    t2.add_argument("--nm", type=float, default=40)
    t2.add_argument("--nr", type=float, default=3)
    t2.add_argument("--k", type=int, default=8)
    t2.add_argument("--alpha", type=int, default=5)
    t2.add_argument("--L", type=int, default=2)

    t3 = sub.add_parser("table3", help="the paper's numeric instance (Table 3)")
    t3.add_argument("--simulate", action="store_true",
                    help="also run the measured counterpart")
    t3.add_argument("--n0", type=int, default=100)
    _add_cache_flag(t3)

    sub.add_parser("fig1", help="example clustered network (Figure 1)")
    sub.add_parser("fig2", help="definition lattice (Figure 2)")
    sub.add_parser("fig3", help="Algorithm-1 walkthrough (Figure 3)")

    sn = sub.add_parser("sweep-n", help="cost vs network size (X1)")
    sn.add_argument("--sizes", type=int, nargs="+", default=[40, 80, 120, 160])
    sn.add_argument("--k", type=int, default=6)
    sn.add_argument("--alpha", type=int, default=3)
    _add_cache_flag(sn)

    sk = sub.add_parser("sweep-k", help="cost vs token count (X2a)")
    sk.add_argument("--ks", type=int, nargs="+", default=[2, 4, 8, 16])
    sk.add_argument("--n0", type=int, default=80)
    sk.add_argument("--theta", type=int, default=24)
    _add_cache_flag(sk)

    sr = sub.add_parser("sweep-nr", help="cost vs re-affiliation churn (X2b)")
    sr.add_argument("--ps", type=float, nargs="+",
                    default=[0.0, 0.1, 0.3, 0.6, 0.9])
    sr.add_argument("--n0", type=int, default=60)
    sr.add_argument("--theta", type=int, default=18)
    _add_cache_flag(sr)

    ab = sub.add_parser("ablation", help="alpha/L design ablation (X3a)")
    ab.add_argument("--alphas", type=int, nargs="+", default=[1, 2, 5])
    ab.add_argument("--Ls", type=int, nargs="+", default=[1, 2])
    _add_cache_flag(ab)

    mo = sub.add_parser("mobility", help="mobility end-to-end pipeline (X4)")
    mo.add_argument("--nodes", type=int, default=60)
    mo.add_argument("--rounds", type=int, default=80)
    mo.add_argument("--radius", type=float, default=160.0)

    ct = sub.add_parser("count", help="network-size estimation (X8)")
    ct.add_argument("--n0", type=int, default=30)
    ct.add_argument("--method", choices=["hierarchical", "flat", "kcommittee"],
                    default="hierarchical")

    pa = sub.add_parser("pareto", help="time/communication Pareto frontier (X12)")
    pa.add_argument("--n0", type=int, default=50)
    pa.add_argument("--k", type=int, default=5)
    _add_cache_flag(pa)

    bn = sub.add_parser(
        "bench",
        help="continuous benchmark fleet: run the matrixed tier, append a "
        "commit-keyed history bucket, and gate vs the previous bucket "
        "(an equivalence or counter failure prints the engine-divergence "
        "report)",
    )
    tier = bn.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true",
                      help="the per-PR CI tier (default)")
    tier.add_argument("--full", action="store_true",
                      help="the nightly tier: larger n, reference-engine "
                      "absolute cases, raised obs levels")
    bn.add_argument("--list", action="store_true",
                    help="print the expanded matrix with budgets and tiers "
                    "without running anything")
    bn.add_argument("--report", action="store_true",
                    help="render the cross-commit trend dashboard from the "
                    "recorded history instead of running")
    bn.add_argument("--markdown", action="store_true",
                    help="with --report: emit a markdown table (suitable for "
                    "$GITHUB_STEP_SUMMARY)")
    bn.add_argument("--json", default=None, metavar="PATH",
                    help="bench file to read/append (default: the repo's "
                    "BENCH_engine.json, found walking up from cwd)")
    bn.add_argument("--cases", nargs="+", default=None, metavar="NAME",
                    help="run only these matrix cases (names from --list)")
    bn.add_argument("--repeats", type=int, default=3,
                    help="paired timing repeats per case (default: 3)")
    bn.add_argument("--processes", type=int, default=1,
                    help="worker processes (default 1: paired timing wants "
                    "an otherwise-idle machine)")
    bn.add_argument("--threshold", type=float, default=None,
                    help="allowed fractional speedup regression vs the "
                    "previous bucket (default: each case's own floor, 0.25 "
                    "on the pinned instance and 0.5 elsewhere)")
    bn.add_argument("--commit", default=None, metavar="LABEL",
                    help="override the history bucket label (default: short "
                    "git commit, '-dirty'-suffixed on an unclean tree)")
    bn.add_argument("--inject-slowdown", action="append", default=[],
                    metavar="CASE:MS",
                    help="testing hook: sleep MS inside the named case's "
                    "timed callable (repeatable)")
    bn.add_argument("--inject-envelope", action="append", default=[],
                    metavar="CASE:FACTOR",
                    help="testing hook: inflate the named case's "
                    "measured/predicted envelope ratios by FACTOR "
                    "(repeatable; a factor pushing a ratio past 1.0 trips "
                    "the envelope gate)")
    bn.add_argument("--no-gate", action="store_true",
                    help="record the bucket but skip gating (seeding a "
                    "fresh history)")
    bn.add_argument("--no-memory", action="store_true",
                    help="skip the tracemalloc peak-memory pass")
    bn.add_argument("--heartbeat", action="store_true",
                    help="print per-case progress heartbeats to stderr "
                    "([bench] case NAME start/done lines) and flag mid-run "
                    "stalls that exceed the case's budget-derived limit")
    bn.add_argument("--stall-after-ms", type=float, default=None,
                    metavar="MS",
                    help="with --heartbeat: flag a case as stalled after MS "
                    "milliseconds (default: derived from the case budget)")
    _add_cache_flag(bn)

    return parser


def _resolve_spec(name: str) -> AlgorithmSpec:
    from .registry import get_spec, spec_names

    try:
        return get_spec(name)
    except KeyError:
        raise SystemExit(
            f"unknown algorithm {name!r}; known: {', '.join(spec_names())}"
        )


def _scenario_kind(args, spec: AlgorithmSpec) -> str:
    """The catalogue kind ``--scenario``/``--adversary`` select."""
    from .experiments.scenarios import default_kind

    if args.adversary:
        return "adversarial"
    return default_kind(spec) if args.scenario == "auto" else args.scenario


def _build_scenario(args, spec: AlgorithmSpec, profiler=None):
    """Build the scenario ``repro run``/``repro profile`` execute on.

    With a :class:`~repro.obs.Profiler`, generation runs unverified under
    a ``scenario_build`` section and the kind's certifier runs
    separately under ``property_checks`` — the split the profile report
    shows alongside the engine's own round-loop sections.  A scenario the
    spec cannot run on (a missing model parameter, an unsupported family)
    is the command's usage error (exit 2).
    """
    from contextlib import nullcontext

    from .experiments.scenarios import (
        SCENARIO_KINDS,
        _certified,
        churn_scenario,
        lossy_scenario,
        scenario_for,
    )

    kind = _scenario_kind(args, spec)
    profiled = profiler is not None
    build = profiler.section("scenario_build") if profiled else nullcontext()
    with build:
        scenario = scenario_for(
            kind, n0=args.n0, k=args.k, seed=args.seed, theta=args.theta,
            alpha=args.alpha, L=args.L, rounds=args.rounds,
            verify=not profiled,  # profiled builds time the certifier apart
        )
    certify = SCENARIO_KINDS[kind][2]
    if profiled and certify is not None:
        with profiler.section("property_checks"):
            scenario = _certified(scenario, certify)
    if args.loss:
        scenario = lossy_scenario(scenario, args.loss, seed=args.loss_seed,
                                  burst_len=args.burst)
    if args.churn:
        scenario = churn_scenario(scenario, args.churn, seed=args.churn_seed)
    try:
        spec.validate_scenario(scenario)
    except (KeyError, ValueError) as exc:
        args.usage_error(exc.args[0])
    return scenario


def _spec_overrides(args, spec: AlgorithmSpec) -> dict:
    overrides = {}
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if spec.seeded:
        overrides["seed"] = args.seed  # reproducible (and cacheable) run
    return overrides


def _cmd_run(args) -> str:
    from .experiments.report import format_records
    from .experiments.runner import execute

    spec = _resolve_spec(args.algorithm)
    scenario = _build_scenario(args, spec)
    streaming = args.events or args.live or args.metrics_out
    if streaming and args.obs == "off":
        raise SystemExit(
            "--events/--live/--metrics-out require telemetry; drop --obs off"
        )
    bus = events_sink = None
    if streaming:
        from .obs import (
            JsonlStreamSink,
            LiveDashboard,
            MetricsExporter,
            TelemetryBus,
        )

        sinks = []
        if args.events:
            events_sink = JsonlStreamSink(args.events, run_info={
                "algorithm": spec.display_name,
                "scenario": scenario.name,
                "n": scenario.n,
                "k": scenario.k,
                "engine": args.engine,
            })
            sinks.append(events_sink)
        if args.live:
            sinks.append(LiveDashboard(out=sys.stderr))
        if args.metrics_out:
            sinks.append(MetricsExporter(args.metrics_out))
        bus = TelemetryBus(sinks, decimate=max(1, args.stream_decimate))
    try:
        record = execute(spec, scenario, engine=args.engine, cache=args.cache,
                         obs=args.obs, monitor=args.monitor, stream=bus,
                         **_spec_overrides(args, spec))
    finally:
        # an interrupted run still leaves a valid (partial) events file
        if bus is not None:
            bus.close()
    out = f"scenario: {scenario.name}\n\n" + format_records([record.row()])
    if args.monitor:
        violations = record.result.violations or []
        if violations:
            out += f"\n\nmonitor violations ({len(violations)}):\n"
            out += "\n".join(f"  {v}" for v in violations)
        else:
            out += "\n\nmonitors: no invariant violations"
    if events_sink is not None:
        out += (f"\n\nstreamed {events_sink.lines} events to {args.events}")
        if bus.drops:
            out += f" ({bus.drops} dropped under backpressure)"
    if args.metrics_out:
        out += f"\nmetrics textfile at {args.metrics_out}"
    return out


def _cmd_watch(args) -> str:
    import json
    import time

    from .obs import LiveDashboard, MetricsExporter
    from .obs.timeline import _check_events_header

    sinks = [LiveDashboard(out=sys.stdout, interval=args.interval)]
    if args.metrics_out:
        sinks.append(MetricsExporter(args.metrics_out))

    def feed(event):
        for sink in sinks:
            sink.emit(event)

    deadline = time.monotonic() + args.idle_timeout
    fh = None
    try:
        while fh is None:
            try:
                fh = open(args.events, "r", encoding="utf-8")
            except FileNotFoundError:
                if not args.follow or time.monotonic() > deadline:
                    raise SystemExit(f"events file not found: {args.events}")
                time.sleep(args.interval)
        seen = 0
        buffer = ""
        done = False
        while not done:
            chunk = fh.read()
            if chunk:
                deadline = time.monotonic() + args.idle_timeout
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    if not line.strip():
                        continue
                    event = json.loads(line)
                    if seen == 0:
                        try:
                            _check_events_header(event, args.events)
                        except ValueError as exc:
                            raise SystemExit(str(exc)) from None
                    feed(event)
                    seen += 1
                    if event.get("type") == "summary":
                        done = True
                        break
            elif not args.follow:
                break
            elif time.monotonic() > deadline:
                break
            else:
                time.sleep(args.interval)
    finally:
        if fh is not None:
            fh.close()
        for sink in sinks:
            sink.close()
    status = "complete" if done else (
        "idle timeout" if args.follow else "partial")
    return f"watched {seen} events from {args.events} ({status})"


def _format_chain(causal, chain) -> List[str]:
    """Render a provenance chain, one line per hop, origin first."""
    lines = []
    for event in chain:
        phase = causal.phase_of(event.round)
        tag = f"  [phase {phase}]" if phase is not None else ""
        if event.is_origin:
            lines.append(f"  origin    node {event.node} held token "
                         f"{event.token} initially")
        else:
            lines.append(
                f"  round {event.round:<3} node {event.sender} "
                f"({event.sender_role}) -> node {event.node}{tag}"
            )
    return lines


def _cmd_explain(args) -> str:
    from .experiments.runner import execute

    spec = _resolve_spec(args.algorithm)
    scenario = _build_scenario(args, spec)
    record = execute(spec, scenario, engine=args.engine, cache=args.cache,
                     obs="trace", **_spec_overrides(args, spec))
    causal = record.result.causal_trace
    token = args.token
    if not 0 <= token < record.k:
        raise SystemExit(f"token must be in 0..{record.k - 1}")
    events = causal.token_events(token)
    if not events:
        raise SystemExit(f"token {token} was never observed (no origin?)")

    node = args.node
    if node is None:
        learns = [e for e in events if not e.is_origin]
        node = learns[-1].node if learns else events[-1].node
    chain = causal.provenance(node, token)
    if not chain:
        raise SystemExit(f"node {node} never learned token {token} "
                         f"within the budget")

    hops, last_round = causal.critical_path(token)
    alpha = scenario.params.get("alpha")
    L = scenario.params.get("L")
    parts = [
        f"scenario: {scenario.name}",
        f"algorithm: {record.algorithm}  engine: {args.engine}  "
        f"rounds: {record.rounds}",
        "",
        f"provenance of token {token} at node {node} "
        f"({max(len(chain) - 1, 0)} hops):",
        *_format_chain(causal, chain),
        "",
        f"token {token} overall: reached {len(events)}/{record.n} nodes, "
        f"critical path {hops} hops"
        + (f", last first-learn at round {last_round}" if last_round is not None
           else " (never left its origins)"),
    ]
    if alpha is not None and L is not None:
        bound = int(alpha) * int(L)
        verdict = "within" if hops <= bound else "EXCEEDS"
        parts.append(
            f"backbone-hop budget α·L = {alpha}·{L} = {bound}: "
            f"critical path {verdict} the per-phase bound"
        )
    if causal.phase_length:
        parts.append(f"phase structure: T = {causal.phase_length} rounds")
    hop_hist = " ".join(f"{d}:{c}" for d, c in causal.hop_histogram().items())
    lat_hist = " ".join(f"{r}:{c}" for r, c in causal.latency_histogram().items())
    parts += [
        "",
        f"hop histogram (chain length -> pairs): {hop_hist}",
        f"latency histogram (first-learn round -> events): {lat_hist or '(all origins)'}",
    ]
    return "\n".join(parts)


def _cmd_report(args) -> str:
    from .experiments.replication import replicate_records
    from .experiments.scenarios import scenario_for
    from .obs import merge_timelines, render_dashboard

    spec = _resolve_spec(args.algorithm)
    kind = _scenario_kind(args, spec)
    if args.loss or args.churn or kind == "adversarial":
        raise SystemExit(
            "repro report replicates benign scenarios only; fault flags "
            "(--loss/--churn/--adversary) are not supported here — use "
            "'repro run' per seed instead"
        )
    # module-level builder + plain kwargs: cells pickle for --processes N
    kwargs = dict(kind=kind, n0=args.n0, k=args.k, theta=args.theta,
                  alpha=args.alpha, L=args.L, verify=False)
    records = replicate_records(
        spec.name, scenario_for,
        replications=args.replications,
        base_seed=args.seed,
        processes=args.processes,
        cache=args.cache,
        scenario_kwargs=kwargs,
        **_spec_overrides(args, spec),
    )
    bands = merge_timelines([r.result.timeline for r in records])
    title = (f"{spec.display_name} on {kind} "
             f"(n0={args.n0}, k={args.k}, {args.replications} seeds)")
    # predicted analytical band: one representative scenario stands in for
    # the replication cell (seeds vary the trace, not the bound symbols)
    envelope = None
    try:
        from .analysis import predict

        pred = predict(spec, scenario_for(seed=args.seed, **kwargs),
                       **_spec_overrides(args, spec))
        envelope = {"rounds": pred.rounds, "messages": pred.messages,
                    "tokens": pred.tokens}
    except Exception:
        pass  # no envelope / unbound symbols — dashboard renders without
    return render_dashboard(bands, title=title, markdown=args.markdown,
                            envelope=envelope)


def _cmd_profile(args) -> str:
    from .experiments.report import format_records
    from .experiments.runner import execute
    from .obs import Profiler

    spec = _resolve_spec(args.algorithm)
    profiler = Profiler()
    scenario = _build_scenario(args, spec, profiler=profiler)
    with profiler.section("round_loop"):
        record = execute(spec, scenario, engine=args.engine, cache=None,
                         obs="profile", **_spec_overrides(args, spec))
    timeline = record.result.timeline
    timeline.profile.update(profiler.seconds)

    T = int(scenario.params.get("T", 1))
    parts = [
        f"scenario: {scenario.name}",
        f"engine: {args.engine}  rounds: {record.rounds}  "
        f"completion: {record.completion_round}  tokens: {record.tokens_sent}",
        "",
        "wall-clock sections (round-loop sections overlap round_loop):",
        format_records(timeline.profile_rows()),
        "",
        f"per-phase breakdown (T={T}):",
        format_records(timeline.phases(T)),
    ]
    return "\n".join(parts)


def _load_recording_or_exit(path: str):
    """Load a recording file, turning failures into readable exits."""
    import json

    from . import io as _io

    try:
        return _io.load_recording(path)
    except FileNotFoundError:
        raise SystemExit(f"recording file not found: {path}")
    except IsADirectoryError:
        raise SystemExit(f"recording path is a directory, not a file: {path}")
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(
            f"could not read recording {path}: {exc} "
            "(expected JSON written by 'repro record')"
        )


def _cmd_record(args) -> str:
    import json

    from . import io as _io
    from .experiments.runner import execute

    spec = _resolve_spec(args.algorithm)
    scenario = _build_scenario(args, spec)
    record = execute(spec, scenario, engine=args.engine, cache=args.cache,
                     obs="record", **_spec_overrides(args, spec))
    recording = record.result.recording
    _io.save_recording(recording, args.out)
    parts = [
        f"scenario: {scenario.name}",
        f"recorded {recording.rounds_recorded} rounds on engine "
        f"{args.engine!r} -> {args.out}",
        f"n={recording.n} k={recording.k} "
        f"final coverage {recording.coverage_at(recording.rounds_recorded - 1)}"
        f"/{recording.n * recording.k} "
        f"fingerprint {recording.fingerprint()[:16]}",
    ]
    if args.chrome:
        from .obs import to_chrome_trace

        trace = to_chrome_trace(recording, timeline=record.result.timeline)
        with open(args.chrome, "w") as handle:
            json.dump(trace, handle)
        parts.append(
            f"wrote {len(trace['traceEvents'])} Chrome trace events to "
            f"{args.chrome} (open in chrome://tracing or ui.perfetto.dev)"
        )
    return "\n".join(parts)


def _cmd_replay(args) -> str:
    from .experiments.report import format_records

    recording = _load_recording_or_exit(args.recording)
    last = recording.rounds_recorded - 1
    meta = recording.meta
    head = [
        f"recording: {args.recording}",
        f"algorithm: {meta.get('algorithm', '?')}  "
        f"scenario: {meta.get('scenario', '?')}  "
        f"engine: {meta.get('engine', '?')}",
        f"n={recording.n} k={recording.k} rounds={recording.rounds_recorded}",
    ]
    if args.at is None and args.node is None:
        states = recording.states()
        next(states)  # the initial assignment
        rows = [{
            "round": r,
            "messages": len(delta.messages),
            "tokens_sent": sum(m.cost for m in delta.messages),
            "nodes_gaining": len(delta.gained),
            "coverage": sum(len(t) for t in state.values()),
        } for (r, state), delta in zip(states, recording.rounds)]
        return "\n".join(head) + "\n\n" + format_records(rows)

    at = last if args.at is None else args.at
    if not -1 <= at <= last:
        raise SystemExit(
            f"--at {at} outside recorded range -1..{last} "
            f"({args.recording} holds {recording.rounds_recorded} rounds)"
        )
    if args.node is not None:
        if not 0 <= args.node < recording.n:
            raise SystemExit(
                f"--node {args.node} outside 0..{recording.n - 1}"
            )
        tokens = sorted(recording.node_state(at, args.node))
        return "\n".join(head + [
            "",
            f"node {args.node} at end of round {at}: "
            f"{len(tokens)}/{recording.k} tokens: {tokens}",
        ])
    state = recording.state_at(at)
    coverage = sum(len(t) for t in state.values())
    complete = sum(1 for t in state.values() if len(t) == recording.k)
    lines = head + [
        "",
        f"state at end of round {at}: coverage {coverage}"
        f"/{recording.n * recording.k}, {complete}/{recording.n} nodes "
        "complete",
    ]
    for v in range(recording.n):
        toks = sorted(state[v])
        lines.append(f"  node {v:>3}: {len(toks)}/{recording.k} {toks}")
    return "\n".join(lines)


def _cmd_diff(args):
    """Returns ``(text, exit_code)`` — 0 identical, 1 divergent."""
    from .obs import diff_recordings

    if args.engines is not None:
        if args.recordings:
            raise SystemExit(
                "pass either two recording files or --engines ALGORITHM, "
                "not both"
            )
        from .obs import diff_engines

        spec = _resolve_spec(args.engines)
        scenario = _build_scenario(args, spec)
        report = diff_engines(spec, scenario, **_spec_overrides(args, spec))
        header = f"scenario: {scenario.name}\n"
    else:
        if len(args.recordings) != 2:
            raise SystemExit(
                "diff needs exactly two recording files "
                "(or --engines ALGORITHM)"
            )
        path_a, path_b = args.recordings
        a = _load_recording_or_exit(path_a)
        b = _load_recording_or_exit(path_b)
        try:
            report = diff_recordings(a, b, label_a=path_a, label_b=path_b)
        except ValueError as exc:
            raise SystemExit(f"recordings are not comparable: {exc}")
        header = ""
    text = header + report.format()
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(text + "\n")
        text += f"\n(report written to {args.report})"
    return text, (0 if report.identical else 1)


def _parse_inject(entries: List[str], flag: str = "--inject-slowdown",
                  unit: str = "MS") -> dict:
    """``CASE:VALUE`` pairs → {case: value}; case names never contain
    colons.  Shared by the fleet's fault-injection hooks."""
    inject = {}
    for entry in entries:
        name, _, value = entry.rpartition(":")
        if not name:
            raise SystemExit(
                f"{flag} wants CASE:{unit}, got {entry!r}"
            )
        try:
            inject[name] = float(value)
        except ValueError:
            raise SystemExit(
                f"{flag} wants a numeric {unit}, got {entry!r}"
            )
    return inject


def _cmd_validate_model(args):
    """Returns ``(text, exit_code)`` — 0 clean, 1 when any benign case
    escaped its analytical envelope."""
    from .analysis import failures, table_rows, validate_model
    from .experiments.report import format_records

    try:
        specs = ([_resolve_spec(name).name for name in args.algorithms]
                 if args.algorithms else None)
        rows = validate_model(
            n0=args.n0, k=args.k, seed=args.seed, engine=args.engine,
            cache=args.cache, algorithms=specs,
            include_adversarial=args.adversarial,
        )
    except ImportError as exc:  # pragma: no cover — sympy is a declared dep
        raise SystemExit(f"validate-model needs the analysis tier: {exc}")

    if args.json:
        from .io import save_ratio_table

        save_ratio_table(rows, args.json, meta={
            "n0": args.n0, "k": args.k, "seed": args.seed,
            "engine": args.engine, "adversarial": bool(args.adversarial),
        })

    flat = table_rows(rows)
    if args.markdown:
        keys = list(flat[0].keys()) if flat else []
        lines = ["| " + " | ".join(keys) + " |",
                 "| " + " | ".join("---" for _ in keys) + " |"]
        lines += ["| " + " | ".join(str(row.get(k, "-")) for k in keys) + " |"
                  for row in flat]
        table = "\n".join(lines)
    else:
        table = format_records(flat)

    bad = failures(rows)
    head = (f"validate-model — {len(rows)} case(s) at n0={args.n0}, "
            f"k={args.k}, engine={args.engine!r}")
    parts = [head, "", table, ""]
    if bad:
        for row in bad:
            over = [m for m in ("rounds", "messages", "tokens")
                    if row[f"{m}_ratio"] > 1.0]
            reason = (f"{', '.join(over)} over bound" if over
                      else "guaranteed spec finished incomplete")
            parts.append(
                f"FAIL: {row['algorithm']} on {row['scenario']}: {reason}"
            )
        return "\n".join(parts), 1
    parts.append("OK: every benign-family case inside its Table 2 envelope")
    return "\n".join(parts), 0


def _cmd_bench(args):
    """Returns ``(text, exit_code)`` — 0 clean, 1 on gate violations."""
    from pathlib import Path

    from .bench import (
        build_scenario,
        current_commit,
        default_bench_path,
        expand,
        gate_fleet,
        load_bench,
        previous_bucket,
        record_bucket,
        render_trend,
        run_fleet,
        select,
    )
    from .bench.matrix import case_rows
    from .bench.runner import fleet_rows
    from .experiments.report import format_records

    tier = "full" if args.full else "quick"
    matrix = expand(None)
    try:
        cases = (select(args.cases, matrix) if args.cases
                 else expand(tier, matrix))
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    path = Path(args.json) if args.json else default_bench_path()

    if args.list:
        head = (f"benchmark matrix — tier {tier!r}: {len(cases)} case(s) "
                f"(full matrix: {len(matrix)})")
        return head + "\n\n" + format_records(case_rows(cases)), 0

    if args.report:
        data = load_bench(path)
        return render_trend(data, cases=args.cases,
                            markdown=args.markdown), 0

    inject = _parse_inject(args.inject_slowdown)
    inject_env = _parse_inject(args.inject_envelope,
                               flag="--inject-envelope", unit="FACTOR")
    known = {case.name for case in matrix}
    for flag, mapping in (("--inject-slowdown", inject),
                          ("--inject-envelope", inject_env)):
        unknown = set(mapping) - known
        if unknown:
            raise SystemExit(
                f"{flag} names unknown case(s): {sorted(unknown)}"
            )

    heartbeat = None
    if args.heartbeat:
        def heartbeat(event):
            if event.get("type") != "case":
                return
            status = event.get("status")
            if status == "done":
                detail = f" ({event.get('ms', 0.0):.0f} ms)"
            elif status == "stall":
                detail = (f" STALL: {event.get('elapsed_ms', 0.0):.0f} ms "
                          f"without a result "
                          f"(limit {event.get('stall_after_ms', 0.0):.0f} ms)")
            else:
                detail = ""
            print(f"[bench] case {event.get('case')} {status}{detail}",
                  file=sys.stderr, flush=True)

    results = run_fleet(cases, repeats=args.repeats,
                        processes=args.processes, inject=inject,
                        cache=args.cache, memory=not args.no_memory,
                        inject_envelope=inject_env, heartbeat=heartbeat,
                        stall_after_ms=args.stall_after_ms)

    # resolve the gate baseline *before* recording this run's bucket —
    # a same-label re-run must not gate against itself
    label = args.commit or current_commit(path.parent)
    previous = previous_bucket(load_bench(path), label)
    record_bucket(
        path,
        {result.name: result.stats for result in results},
        commit=args.commit,
        bucket_meta={"tier": tier, "repeats": args.repeats},
    )

    parts = [
        f"benchmark fleet — tier {tier!r}, {len(results)} case(s), "
        f"bucket {label!r} -> {path}",
        "",
        format_records(fleet_rows(results)),
    ]
    if args.no_gate:
        parts.append("\ngate skipped (--no-gate)")
        return "\n".join(parts), 0

    prev_cases = previous[1] if previous else {}
    if previous:
        parts.append(f"\ngating against bucket {previous[0]!r}")
    else:
        parts.append("\nno previous bucket — absolute gates only "
                     "(budgets, equivalence)")
    violations = gate_fleet(results, prev_cases, threshold=args.threshold)
    if not violations:
        threshold = ("per-case thresholds" if args.threshold is None
                     else f"threshold {args.threshold:.0%}")
        parts.append(f"OK: {len(results)} case(s) within budgets and "
                     f"{threshold}")
        return "\n".join(parts), 0

    parts.append("")
    for violation in violations:
        parts.append(f"FAIL: {violation.format()}")
    # outputs or counters moved: timing cannot explain that, so show
    # where the engines part ways (first diverging round and node)
    from .obs import diff_engines

    diverged = {violation.case for violation in violations
                if violation.kind in ("equivalence", "counter")}
    for case in (result.case for result in results):
        if case.name not in diverged:
            continue
        try:
            report = diff_engines(case.algorithm, build_scenario(case)).format()
        except Exception as exc:  # report the probe failure, don't mask it
            report = f"(diff_engines probe failed: {exc})"
        parts += ["", f"engine diff for {case.name}:", report]
    return "\n".join(parts), 1


def _cmd_mobility(args) -> str:
    from .baselines.klo import make_klo_one_factory
    from .clustering import hierarchy_stats, maintain_clustering
    from .core.algorithm2 import make_algorithm2_factory
    from .experiments.report import format_records
    from .mobility import Field, RandomWaypoint, unit_disk_trace
    from .sim import initial_assignment, run

    n, rounds, k = args.nodes, args.rounds, 6
    field = Field(10 * n, 10 * n)
    traj = RandomWaypoint(n=n, field=field, v_min=10, v_max=40,
                          seed=args.seed).run(rounds)
    flat = unit_disk_trace(traj, radius=args.radius, ensure_connected=True)
    clustered, _ = maintain_clustering(flat)
    hs = hierarchy_stats(clustered)
    init = initial_assignment(k, n, mode="spread")
    ours = run(clustered, make_algorithm2_factory(M=rounds), k=k,
               initial=init, max_rounds=rounds)
    theirs = run(clustered, make_klo_one_factory(M=rounds), k=k,
                 initial=init, max_rounds=rounds)
    rows = [
        {"algorithm": "Algorithm 2 (HiNet)", "tokens": ours.metrics.tokens_sent,
         "completion": ours.metrics.completion_round, "complete": ours.complete},
        {"algorithm": "KLO (1-interval)", "tokens": theirs.metrics.tokens_sent,
         "completion": theirs.metrics.completion_round, "complete": theirs.complete},
    ]
    header = (f"hierarchy: theta={hs.theta}, nm={hs.mean_members:.1f}, "
              f"nr={hs.mean_reaffiliations:.2f}, L={hs.hop_bound_L}\n\n")
    return header + format_records(rows)


def _cmd_count(args) -> str:
    from .baselines.kcommittee import klo_counting
    from .core.counting import count_flat, count_hierarchical
    from .experiments.scenarios import hinet_one_scenario

    n = args.n0
    scenario = hinet_one_scenario(
        n0=n, theta=max(n * 3 // 10, 2), k=1, L=2, seed=args.seed
    )
    if args.method == "kcommittee":
        out = klo_counting(scenario.trace)
        return (
            f"k-committee accepted at k={out.k} "
            f"(true n={n}, guarantee n <= 2k): "
            f"{out.rounds_used} rounds, {out.tokens_sent} tokens"
        )
    fn = count_hierarchical if args.method == "hierarchical" else count_flat
    out = fn(scenario.trace)
    return (
        f"{args.method} count: exact={out.exact} "
        f"(true n={n}), {out.rounds} rounds, {out.tokens_sent} tokens"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .experiments.report import format_records

    args = build_parser().parse_args(argv)

    if args.command == "list-algorithms":
        from .registry import all_specs

        print(format_records([spec.row() for spec in all_specs()]))
    elif args.command == "validate-model":
        text, code = _cmd_validate_model(args)
        print(text)
        return code
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "watch":
        print(_cmd_watch(args))
    elif args.command == "explain":
        print(_cmd_explain(args))
    elif args.command == "report":
        print(_cmd_report(args))
    elif args.command == "profile":
        print(_cmd_profile(args))
    elif args.command == "record":
        print(_cmd_record(args))
    elif args.command == "replay":
        print(_cmd_replay(args))
    elif args.command == "diff":
        text, code = _cmd_diff(args)
        print(text)
        return code
    elif args.command == "bench":
        text, code = _cmd_bench(args)
        print(text)
        return code
    elif args.command == "table2":
        from .core.analysis import CostParams, table2

        params = CostParams(n0=args.n0, theta=args.theta, nm=args.nm,
                            nr=args.nr, k=args.k, alpha=args.alpha, L=args.L)
        print(format_records(table2(params)))
    elif args.command == "table3":
        from .experiments.tables import analytic_table3, simulated_table3

        print(format_records(analytic_table3()))
        if args.simulate:
            print()
            print(format_records(simulated_table3(seed=args.seed, n0=args.n0,
                                                  cache=args.cache)))
    elif args.command == "fig1":
        from .experiments.figures import fig1_example_network

        _, text = fig1_example_network()
        print(text)
    elif args.command == "fig2":
        from .experiments.figures import fig2_definition_lattice

        _, text = fig2_definition_lattice(seed=args.seed)
        print(text)
    elif args.command == "fig3":
        from .experiments.figures import fig3_walkthrough

        print(fig3_walkthrough(seed=args.seed))
    elif args.command == "sweep-n":
        from .experiments.sweeps import sweep_n

        print(format_records(sweep_n(ns=args.sizes, k=args.k,
                                     alpha=args.alpha, seed=args.seed,
                                     cache=args.cache)))
    elif args.command == "sweep-k":
        from .experiments.sweeps import sweep_k

        print(format_records(sweep_k(ks=args.ks, n0=args.n0,
                                     theta=args.theta, seed=args.seed,
                                     cache=args.cache)))
    elif args.command == "sweep-nr":
        from .experiments.sweeps import sweep_reaffiliation

        print(format_records(sweep_reaffiliation(ps=args.ps, n0=args.n0,
                                                 theta=args.theta,
                                                 seed=args.seed,
                                                 cache=args.cache)))
    elif args.command == "ablation":
        from .experiments.sweeps import sweep_alpha_L

        print(format_records(sweep_alpha_L(alphas=args.alphas, Ls=args.Ls,
                                           seed=args.seed, cache=args.cache)))
    elif args.command == "mobility":
        print(_cmd_mobility(args))
    elif args.command == "count":
        print(_cmd_count(args))
    elif args.command == "pareto":
        from .experiments.pareto import dissemination_pareto

        rows, frontier = dissemination_pareto(
            n0=args.n0, k=args.k, theta=max(args.n0 * 3 // 10, 2),
            seed=args.seed, cache=args.cache,
        )
        print(format_records(rows))
        print()
        print("frontier:", ", ".join(str(r["algorithm"]) for r in frontier))
    else:  # pragma: no cover — argparse enforces the choices
        raise SystemExit(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

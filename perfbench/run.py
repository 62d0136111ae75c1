"""End-to-end benchmark of what a user of ``repro`` waits for.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the root; see
``perfbench/README.md`` for what each measures and why it exists.

The run starts :data:`SAMPLES` fresh interpreters one after another
(``perfbench/worker.py``), each of which imports ``repro`` from ``src/``,
sets the workload up on inputs derived from ``--seed`` and its sample
index, and runs a timed share of ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics over all samples, with
times calibrated against a reference kernel timed around every
operation (see :func:`end_to_end`).
With ``--trace 1`` the first and last samples run with the span tracer
installed and the middle one without, which gives the per-layer
breakdown and the tracing overhead; end-to-end figures never come from
a traced sample.

Output: a header naming the pinned environment, one line per metric,
and as the last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Failed operations are counted, not raised.
Without ``src/repro`` next to this directory the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

#: Fresh interpreters per run; setup_s and peak_rss_mb are medians over
#: them.
SAMPLES = 3

#: Samples that have not finished by then fail the run; a benchmark run
#: is expected to end within 180 s.
DEADLINE_S = 170.0

#: Environment knobs that switch code paths in ``repro``; all are pinned
#: unset so every run takes the default path.
REPRO_KNOBS = (
    "REPRO_RESULT_CACHE",
    "REPRO_COLUMNAR_SHARDS",
    "REPRO_COLUMNAR_SHARD_PROCESSES",
    "REPRO_RECORD_SPILL",
    "REPRO_FASTPATH_FAULT",
    "REPRO_PARALLEL_TIMEOUT_S",
)

#: Pinned so iteration orders and BLAS threading do not vary between runs.
PINNED = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _child_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in REPRO_KNOBS}
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def _run_sample(args, index: int, traced: bool, workdir: Path, deadline: float) -> dict:
    sample_dir = workdir / str(index)
    sample_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--sample", str(index),
        "--share", repr(args.seconds / SAMPLES),
        "--workdir", str(sample_dir),
        "--size", args.size,
    ]
    if traced:
        cmd.append("--trace")
    if args.wrong_counter:
        cmd.append("--wrong-counter")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for sample {index}")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(sample_dir),
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample {index} exceeded the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"sample {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


#: The reference kernel's time (``worker.reference_seconds``) on an
#: undisturbed 2-vCPU x86_64 host.  Calibrated times are expressed in it;
#: it scales every reported time and rate by the same constant factor.
REFERENCE_S = 0.011


def calibrated_pass(reports):
    """Runs, node-rounds and seconds of one pass over every operation class,
    each operation's wall expressed at the reference speed.

    A class's seconds are its operations' summed wall over the summed time
    of the reference kernel timed around them, times :data:`REFERENCE_S`;
    its runs and node-rounds are per-operation means.  A pass holds one
    operation of each class, which is one unit of the workload.
    """
    ops = defaultdict(list)
    for report in reports:
        for name, samples in report["ops"].items():
            ops[name].extend(samples)
    runs = node_rounds = seconds = 0.0
    for samples in ops.values():
        seconds += (sum(s[0] for s in samples) / sum(s[3] for s in samples)
                    * REFERENCE_S)
        runs += sum(s[1] for s in samples) / len(samples)
        node_rounds += sum(s[2] for s in samples) / len(samples)
    return runs, node_rounds, seconds


def end_to_end(reports) -> dict:
    """What a user of the workload sees, from untraced samples.

    Times are at the reference speed, so that a host whose speed drifts
    from one minute to the next gives the same figures: throughputs come
    from :func:`calibrated_pass`, and ``setup_s`` is the median over
    samples of each sample's set-up wall over the reference kernel's time
    right after it, times :data:`REFERENCE_S`.  ``peak_rss_mb`` is the
    median over samples.
    """
    runs, node_rounds, seconds = calibrated_pass(reports)
    return {
        "setup_s": median(r["setup_s"] / r["setup_reference_s"] * REFERENCE_S
                          for r in reports),
        "runs_per_s": runs / seconds,
        "node_rounds_per_s": node_rounds / seconds,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(reports) -> dict:
    """Per-layer totals over the traced samples, plus coverage/overhead.

    Layer times are self times summed over traced samples; ``trace.wall_s``
    is their timed wall, so ``<layer>_s / trace.wall_s`` is the layer's
    share.  ``trace.overhead`` compares the :func:`calibrated_pass` time
    of the traced samples with that of the untraced one.
    """
    traced = [r for r in reports if "layers" in r]
    plain = [r for r in reports if "layers" not in r]
    values = defaultdict(float)
    for report in traced:
        for name, value in report["layers"].items():
            values[name] += value
    wall = sum(r["timed_s"] for r in traced)
    engine_s = values["engine.fast.run_s"] + values["engine.columnar.run_s"]
    node_rounds = values["engine.node_rounds"]
    lookups = values["cache.hits"] + values["cache.misses"]
    pass_traced_s = calibrated_pass(traced)[2]
    pass_plain_s = calibrated_pass(plain)[2]

    values.update({
        "startup.import_s": median(r["startup_import_s"] for r in reports),
        "startup.modules": median(r["startup_modules"] for r in reports),
        "engine.run_s": engine_s,
        "engine.ns_per_node_round": (
            engine_s / node_rounds * 1e9 if node_rounds else 0.0
        ),
        "cache.hit_ratio": values["cache.hits"] / lookups if lookups else 0.0,
        "trace.wall_s": wall,
        "trace.coverage": values["trace.covered_s"] / wall,
        "trace.overhead": pass_traced_s / pass_plain_s - 1.0,
    })
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's self-tests")
    parser.add_argument("--wrong-counter", action="store_true",
                        help="self-test: expect a wrong counter in every check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size} "
          f"samples={SAMPLES}")
    print(f"# python {platform.python_version()} on {platform.machine()}, "
          f"{os.cpu_count()} cpus")
    print("# pinned: " + " ".join(
        [f"{k}=<unset>" for k in REPRO_KNOBS] + [f"{k}={v}" for k, v in PINNED.items()]
    ))

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        reports = [
            _run_sample(args, i, bool(args.trace) and i != 1, workdir, deadline)
            for i in range(SAMPLES)
        ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's samples are still there

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(reports) if args.trace else end_to_end(reports)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for report in reports:
        for note in report["notes"]:
            print(f"# FAILED: {note}")
    print(f"# samples: units={[r['units'] for r in reports]} "
          f"timed_s={[round(r['timed_s'], 3) for r in reports]} "
          f"setup_s={[round(r['setup_s'], 3) for r in reports]} "
          f"(uncalibrated)")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark.  Run from the repository root with::

    python3 -m pytest perfbench

Each runs ``perfbench/run.py`` as a user would, on tiny inputs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _tiny(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.3",
                "--trace", str(trace), "--size", "tiny", *extra)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in declared:  # the human-readable lines name them too
        assert any(line.split()[:1] == [metric["name"]]
                   and line.endswith(metric["unit"]) for line in lines[:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_counter_is_a_failed_operation(workload):
    proc = _tiny(workload, 0, "--wrong-counter")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert "# FAILED:" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_calibration_cancels_a_uniform_slowdown():
    sys.path.insert(0, str(BENCH_DIR))
    import run

    ops = {"a": [[0.2, 2, 100, 0.01], [0.4, 2, 100, 0.02]],
           "b": [[0.1, 1, 10, 0.01]]}
    slowed = {name: [[t * 1.5, runs, rounds, ref * 1.5]
                     for t, runs, rounds, ref in samples]
              for name, samples in ops.items()}
    runs, node_rounds, seconds = run.calibrated_pass([{"ops": ops}])
    assert (runs, node_rounds) == (3, 110)
    assert seconds == pytest.approx((0.6 / 0.03 + 0.1 / 0.01) * run.REFERENCE_S)
    assert run.calibrated_pass([{"ops": slowed}]) == \
        pytest.approx((runs, node_rounds, seconds))

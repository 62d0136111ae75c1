"""Tests for process-parallel experiment execution."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.parallel import TIMEOUT_ENV_VAR, parallel_map
from repro.experiments.replication import replicate

# module-level functions: the picklability contract of ProcessPoolExecutor


def _square(x):
    return x * x


def _sleepy(x):
    import time

    time.sleep(x)
    return x


def _tiny_experiment(seed):
    """A real (fast) experiment: one small verified scenario pair."""
    from repro.experiments.runner import execute
    from repro.experiments.scenarios import hinet_interval_scenario

    s = hinet_interval_scenario(n0=24, theta=8, k=3, alpha=2, L=2,
                                seed=seed, verify=False)
    ours = execute("algorithm1", s)
    theirs = execute("klo-interval", s)
    return {"ratio": theirs.tokens_sent / max(ours.tokens_sent, 1)}


def _seeded_cell(seed):
    """A seeded run whose row, outputs and metrics must be reproducible."""
    from repro.experiments.runner import execute
    from repro.experiments.scenarios import one_interval_scenario

    scenario = one_interval_scenario(n0=12, k=3, seed=seed, verify=False)
    record = execute("gossip", scenario, seed=seed, cache=False)
    return {
        "row": record.row(),
        "outputs": {str(v): sorted(t) for v, t in record.result.outputs.items()},
        "metrics": record.result.metrics.summary(),
    }


_DETERMINISM_SCRIPT = """
import json
from repro.experiments.parallel import parallel_map
from tests.test_parallel import _seeded_cell

print(json.dumps({p: parallel_map(_seeded_cell, list(range(4)), processes=p)
                  for p in (1, 2, 3)}, sort_keys=True))
"""


class TestParallelMap:
    def test_preserves_order(self):
        out = parallel_map(_square, list(range(10)), processes=2)
        assert out == [x * x for x in range(10)]

    def test_serial_path(self):
        assert parallel_map(_square, [3, 4], processes=1) == [9, 16]

    def test_empty_and_single(self):
        assert parallel_map(_square, [], processes=4) == []
        assert parallel_map(_square, [5], processes=4) == [25]

    def test_processes_validated(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1], processes=0)

    def test_parallel_equals_serial(self):
        serial = parallel_map(_square, list(range(8)), processes=1)
        parallel = parallel_map(_square, list(range(8)), processes=2)
        assert serial == parallel

    def test_identical_across_process_counts_and_hash_seeds(self):
        """Same seeds, same bytes: for 1, 2 and 3 worker processes and
        under two ``PYTHONHASHSEED`` values, each in a fresh interpreter."""
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for hashseed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
            proc = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT], cwd=root, env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            by_processes = json.loads(proc.stdout)
            assert by_processes["1"] == by_processes["2"] == by_processes["3"]
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestHeartbeatAndStall:
    def test_serial_heartbeats_in_order(self):
        events = []
        out = parallel_map(_square, [3, 4], processes=1,
                           heartbeat=events.append)
        assert out == [9, 16]
        assert [(e["item"], e["status"]) for e in events] == [
            (0, "start"), (0, "done"), (1, "start"), (1, "done")]
        assert all(e["type"] == "task" for e in events)
        assert all("pid" in e for e in events)
        assert all(e["ms"] >= 0 for e in events if e["status"] == "done")

    def test_parallel_heartbeats_cover_every_item(self):
        # repeated: a done event racing the result once went missing
        for _ in range(30):
            events = []
            out = parallel_map(_square, list(range(6)), processes=2,
                               heartbeat=events.append)
            assert out == [x * x for x in range(6)]
            order = [(e["item"], e["status"]) for e in events]
            for item in range(6):
                assert order.count((item, "start")) == 1
                assert order.count((item, "done")) == 1
                assert (order.index((item, "start"))
                        < order.index((item, "done")))
            assert all(e["ms"] >= 0 and "pid" in e
                       for e in events if e["status"] == "done")

    def test_timeout_off_by_default(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV_VAR, raising=False)
        assert parallel_map(_sleepy, [0.05], processes=2) == [0.05]

    def test_stall_raises_diagnosed_error(self):
        with pytest.raises(RuntimeError) as err:
            parallel_map(_sleepy, [0.01, 30.0], processes=2, timeout_s=0.5)
        message = str(err.value)
        assert "stalled: item 1" in message
        assert TIMEOUT_ENV_VAR in message  # diagnosis names the escape hatch

    def test_stall_timeout_from_environment(self, monkeypatch):
        # two items: a single item runs on the serial path, no watchdog
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "0.5")
        with pytest.raises(RuntimeError, match="stalled"):
            parallel_map(_sleepy, [30.0, 30.0], processes=2)

    def test_env_zero_disables_timeout(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "0")
        assert parallel_map(_sleepy, [0.05], processes=2) == [0.05]

    def test_healthy_run_under_timeout_completes(self):
        out = parallel_map(_square, list(range(4)), processes=2,
                           timeout_s=30.0)
        assert out == [x * x for x in range(4)]


class TestParallelReplicate:
    def test_matches_serial_replicate(self):
        """Same derived seeds -> identical statistics, any worker count."""
        serial = replicate(_tiny_experiment, replications=4, base_seed=7)
        parallel = replicate(_tiny_experiment, replications=4,
                             base_seed=7, processes=2)
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key].mean == pytest.approx(parallel[key].mean)
            assert serial[key].std == pytest.approx(parallel[key].std)

    def test_real_experiment_in_workers(self):
        out = replicate(_tiny_experiment, replications=3,
                        base_seed=1, processes=2)
        assert out["ratio"].minimum > 1.0

    def test_replications_validated(self):
        with pytest.raises(ValueError):
            replicate(_tiny_experiment, replications=0, processes=2)

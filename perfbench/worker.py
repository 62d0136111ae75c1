"""One benchmark sample: a fresh interpreter that sets up one workload,
runs its timed phase and reports.

``run.py`` starts this script once per sample, so ``setup_s``,
``startup.*`` and ``peak_rss_mb`` mean the same thing in every sample::

    python3 perfbench/worker.py --workload paper-sweep --seed 7 --sample 0 \\
        --share 5 --t0 <time.monotonic() just before the start> \\
        --workdir .perfbench-work/0 [--trace] [--size tiny]

The timed phase repeats the workload's unit of work until ``--share``
seconds have passed, completing the unit in progress, so every sample
measures whole units.  The last line of standard output is one JSON
object (see :func:`main`).

Workloads use the public API only: the scenario builders,
``repro.graphs.properties`` checkers, ``repro.experiments.runner.execute``,
``SynchronousEngine.run`` and ``ResultCache``.  All are closed loop and
serial: one operation at a time, ``processes=1``, no shard pool.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager

# paper-sweep / cache-replay grid: the X1 (k+αL, L)-HiNet shape with
# θ = 0.3·n and the X2b (1, L)-HiNet shape on the same sizes
PAPER_SIZES = {"full": (40, 80, 120), "tiny": (24, 32)}
K, ALPHA, L = 6, 3, 2
INTERVAL_ALGORITHMS = ("algorithm1", "klo-interval")
ONE_ALGORITHMS = ("algorithm2", "klo-one")

# large-n: the columnar gate's Algorithm-1 instance scaled to n = 2·10⁴,
# and flooding over a cycle of three ring lattices under i.i.d. loss
LARGE_N = {"full": 20_000, "tiny": 2_000}
LARGE_HEADS = {"full": 200, "tiny": 20}
LARGE_K = 16
ALG1_T, ALG1_M = 12, 6
LATTICE_DEGREES = (2, 4, 6)
FLOOD_ROUNDS = 12
LOSS_P = 0.1

# failures kept verbatim in the report, so a wrong answer can be read
MAX_FAILURE_NOTES = 5

# reference kernel calls right after set-up; their median calibrates setup_s
SETUP_REFERENCE_CALLS = 5


_REF_KEYS = list(range(20_000))
_REF_ARRAY = None


def reference_seconds() -> float:
    """Wall time of a fixed kernel that uses no ``repro`` code.

    The kernel is dict and set churn plus a few MB of numpy arithmetic,
    which on a shared host slows down and speeds up with the workloads'
    own operations; ``run.py`` divides each operation's time by the
    kernel's time around it.
    """
    global _REF_ARRAY
    import numpy as np

    if _REF_ARRAY is None:
        _REF_ARRAY = np.arange(500_000, dtype=np.int64)
    start = time.perf_counter()
    table = {}
    for key in _REF_KEYS:
        table[key * 7919 % 20_011] = key
    members = set(table.values())
    members.difference_update(range(0, 20_000, 3))
    int(((_REF_ARRAY * 3 + len(members)) % 7).sum())
    return time.perf_counter() - start


class Tally:
    """Operations attempted and failed, the work they completed, and the
    wall time of every timed operation by its class."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.node_rounds = 0
        self.notes: list = []
        # op class -> [[seconds, runs, node_rounds, reference seconds], ...],
        # one entry per operation
        self.ops: dict = defaultdict(list)
        self.reference_s = 0.0  # wall spent in the reference kernel

    @contextmanager
    def op(self, name: str):
        """Time one operation of class ``name`` and the work it completes,
        with :func:`reference_seconds` timed right before and after it."""
        ref_before = reference_seconds()
        runs, node_rounds = self.runs, self.node_rounds
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        ref_after = reference_seconds()
        self.reference_s += ref_before + ref_after
        self.ops[name].append([seconds, self.runs - runs,
                               self.node_rounds - node_rounds,
                               (ref_before + ref_after) / 2])

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)

    def record(self, n: int, rounds: int) -> None:
        """Count one completed run of ``rounds`` rounds on ``n`` nodes."""
        self.runs += 1
        self.node_rounds += n * rounds


def _build_cell_scenarios(n0: int, seed: int):
    """The two scenarios of one paper-sweep cell, as named builder thunks.

    Builders are looked up on their module at call time, so the traced
    run's wrappers see the calls.  Generation runs unverified; the
    checkers run separately, as ``repro profile`` splits them.
    """
    from repro.experiments import scenarios
    from repro.graphs import properties
    from repro.sim.rng import derive_seed

    theta = max(int(0.3 * n0), ALPHA)

    def interval():
        return scenarios.hinet_interval_scenario(
            n0=n0, theta=theta, k=K, alpha=ALPHA, L=L,
            seed=derive_seed(seed, "interval", n0), verify=False,
        )

    def one():
        return scenarios.hinet_one_scenario(
            n0=n0, theta=theta, k=K, L=L,
            seed=derive_seed(seed, "one", n0), verify=False,
        )

    def certify_interval(scenario) -> bool:
        return properties.is_hinet(scenario.trace, scenario.params["T"], L)

    def certify_one(scenario) -> bool:
        return properties.is_hinet(scenario.trace, 1, L) and \
            properties.is_T_interval_connected(scenario.trace, 1)

    return (
        (f"interval-{n0}", interval, certify_interval, INTERVAL_ALGORITHMS),
        (f"one-{n0}", one, certify_one, ONE_ALGORITHMS),
    )


class PaperSweep:
    """Cold sweep: build, certify and execute every cell into an empty cache.

    One unit is one pass over :data:`PAPER_SIZES`; each pass builds fresh
    scenarios from its own seed (no memoized builder, no snapshot
    conversions carried over) and writes into a fresh, empty cache
    directory.  One operation is one
    scenario: build, certify and execute its two algorithms.
    """

    def __init__(self, seed: int, size: str, wrong_counter: bool, workdir: str):
        self.seed = seed
        self.sizes = PAPER_SIZES[size]
        self.wrong_counter = wrong_counter
        self.workdir = workdir
        self.passes = 0

    def setup(self) -> None:
        pass  # `import repro` is all a cold sweep prepares

    def unit(self, tally: Tally) -> None:
        from repro.experiments.cache import ResultCache
        from repro.sim.rng import derive_seed

        seed = derive_seed(self.seed, "pass", self.passes)
        self.passes += 1
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        store = ResultCache(cache_dir)
        for n0 in self.sizes:
            for name, build, certify, algorithms in _build_cell_scenarios(n0, seed):
                with tally.op(name):
                    self._cell_part(tally, store, n0, build, certify, algorithms)
        shutil.rmtree(cache_dir, ignore_errors=True)

    def _cell_part(self, tally, store, n0, build, certify, algorithms) -> None:
        """Build and certify one scenario, then execute its algorithms."""
        from repro.experiments.runner import execute

        try:
            scenario = build()
            certified = certify(scenario)
        except Exception as exc:  # a broken build fails its runs
            scenario, certified = None, False
            reason = f"n0={n0}: build/certify raised {exc!r}"
        else:
            reason = f"n0={n0}: {scenario.name} failed certification"
        for algorithm in algorithms:
            tally.attempted += 1
            if not certified:
                tally.fail(f"{algorithm} {reason}")
                continue
            try:
                record = execute(algorithm, scenario, cache=store)
            except Exception as exc:
                tally.fail(f"{algorithm} on {scenario.name} raised {exc!r}")
                continue
            tally.record(record.n, record.rounds)
            self._check(tally, record)

    def _check(self, tally: Tally, record) -> None:
        """A verified instance completes within its theorem budget."""
        budget = 0 if self.wrong_counter else record.bound_rounds
        done = record.completion_round
        if not (record.complete and done is not None and done <= budget
                and record.rounds <= record.bound_rounds):
            tally.fail(
                f"{record.algorithm} on {record.scenario}: complete="
                f"{record.complete} completion_round={done} budget={budget}"
            )


class CacheReplay:
    """Warm-cache re-query of the paper-sweep grid.

    Set-up builds the same scenarios and fills a cache by executing every
    ``(algorithm, scenario)`` once; one unit re-executes all of them
    against the warm cache.  Every call must be a hit whose row equals
    the cold record's.  One operation is one such call.
    """

    def __init__(self, seed: int, size: str, wrong_counter: bool, workdir: str):
        self.seed = seed
        self.sizes = PAPER_SIZES[size]
        self.wrong_counter = wrong_counter
        self.workdir = workdir

    def setup(self) -> None:
        from repro.experiments.cache import ResultCache
        from repro.experiments.runner import execute

        class HitCountingCache(ResultCache):
            misses = 0

            def get(self, key):
                record = super().get(key)
                if record is None:
                    self.misses += 1
                return record

        self.store = HitCountingCache(os.path.join(self.workdir, "cache"))
        self.pairs = []
        for n0 in self.sizes:
            for _name, build, _certify, algorithms in _build_cell_scenarios(n0, self.seed):
                scenario = build()
                for algorithm in algorithms:
                    cold = execute(algorithm, scenario, cache=self.store)
                    expected = cold.row()
                    if self.wrong_counter:
                        expected["tokens_sent"] += 1
                    self.pairs.append((algorithm, scenario, expected))
        self.store.misses = 0

    def unit(self, tally: Tally) -> None:
        from repro.experiments.runner import execute

        store = self.store
        for algorithm, scenario, expected in self.pairs:
            tally.attempted += 1
            misses = store.misses
            try:
                with tally.op(f"{algorithm}-{scenario.n}"):
                    record = execute(algorithm, scenario, cache=store)
                    tally.record(record.n, record.rounds)
            except Exception as exc:
                tally.fail(f"{algorithm} on {scenario.name} raised {exc!r}")
                continue
            if store.misses != misses:
                tally.fail(f"{algorithm} on {scenario.name}: cache miss")
            elif record.row() != expected:
                tally.fail(
                    f"{algorithm} on {scenario.name}: replayed row "
                    f"{record.row()} != cold row {expected}"
                )


class LargeN:
    """Array-native instances at n = 2·10⁴, each on the fast and columnar tier.

    Set-up builds the CSR arrays and token assignment; every run wraps
    them in a fresh ``CSRNetwork``, so no run inherits another's
    materialized snapshots.  One unit runs both instances on both tiers,
    which must agree on rounds, tokens, messages, losses and coverage.
    One operation is one engine run.
    """

    def __init__(self, seed: int, size: str, wrong_counter: bool, workdir: str):
        self.seed = seed
        self.n = LARGE_N[size]
        self.heads = LARGE_HEADS[size]
        self.wrong_counter = wrong_counter

    def setup(self) -> None:
        import numpy as np

        from repro.graphs.generators.static import (
            clustered_star_arrays,
            ring_lattice_arrays,
        )
        from repro.sim.rng import derive_seed

        self.star = clustered_star_arrays(self.n, self.heads)
        lattices = [ring_lattice_arrays(self.n, d) for d in LATTICE_DEGREES]
        self.lattice_cycle = [lattices[r % len(lattices)] for r in range(FLOOD_ROUNDS)]
        rng = np.random.default_rng(derive_seed(self.seed, "large-n"))
        tokens = rng.permutation(self.n) % LARGE_K
        self.initial = {v: frozenset((int(t),)) for v, t in enumerate(tokens)}
        self.loss_seed = derive_seed(self.seed, "loss")

    def _instances(self):
        from repro.baselines.flooding import make_flood_all_factory
        from repro.core.algorithm1 import make_algorithm1_factory
        from repro.sim.linkmodel import IidLoss

        yield ("algorithm1", self.star, make_algorithm1_factory(T=ALG1_T, M=ALG1_M),
               None, ALG1_T * ALG1_M)
        yield ("flood-all+iid-loss", self.lattice_cycle, make_flood_all_factory(),
               lambda: IidLoss(LOSS_P, seed=self.loss_seed), FLOOD_ROUNDS)

    def unit(self, tally: Tally) -> None:
        from repro.sim.engine import SynchronousEngine
        from repro.sim.topology import CSRNetwork

        for name, arrays, factory, link, rounds in self._instances():
            outcomes = {}
            for tier in ("fast", "columnar"):
                tally.attempted += 1
                engine = SynchronousEngine(
                    engine=tier, link=None if link is None else link()
                )
                try:
                    with tally.op(f"{name}-{tier}"):
                        result = engine.run(CSRNetwork(arrays), factory, LARGE_K,
                                            self.initial, rounds)
                        tally.record(self.n, result.metrics.rounds)
                except Exception as exc:
                    tally.fail(f"{name} on the {tier} tier raised {exc!r}")
                    continue
                m = result.metrics
                outcomes[tier] = (m.rounds, m.tokens_sent, m.messages_sent,
                                  m.lost_deliveries, m.per_round_coverage)
            if len(outcomes) < 2:
                continue
            fast, columnar = outcomes["fast"], outcomes["columnar"]
            if self.wrong_counter:
                fast = (fast[0], fast[1] + 1) + fast[2:]
            if fast != columnar:
                tally.fail(f"{name}: fast {fast[:4]} != columnar {columnar[:4]}")


WORKLOADS = {
    "paper-sweep": PaperSweep,
    "cache-replay": CacheReplay,
    "large-n": LargeN,
}


def main(argv=None) -> int:
    """Set up, run the timed phase, print the sample's JSON report.

    The report holds ``setup_s`` (from ``--t0`` to inputs ready) and the
    reference kernel's time right after it, ``startup_import_s``/
    ``startup_modules``, ``timed_s`` (the timed phase's wall less the
    reference kernel's), ``units``, the :class:`Tally` counts and
    per-operation ``ops``, ``peak_rss_mb`` and, with ``--trace``, the
    tracer's per-layer ``layers`` summary.
    """
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample", type=int, required=True)
    parser.add_argument("--share", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--wrong-counter", action="store_true")
    args = parser.parse_args(argv)

    modules_before = len(sys.modules)
    start = time.perf_counter()
    import repro  # noqa: F401  - the import every `python -m repro` pays
    import_s = time.perf_counter() - start
    modules = len(sys.modules) - modules_before

    from repro.sim.rng import derive_seed

    # each sample of a run gets its own inputs, all fixed by --seed
    # (folded to a non-negative integer, which derive_seed requires)
    seed = derive_seed(args.seed % 2**64, "sample", args.sample)
    workload = WORKLOADS[args.workload](
        seed, args.size, args.wrong_counter, args.workdir
    )
    workload.setup()
    setup_s = time.monotonic() - args.t0
    reference_seconds()  # warm-up: the first call allocates its array
    setup_reference_s = sorted(
        reference_seconds() for _ in range(SETUP_REFERENCE_CALLS)
    )[SETUP_REFERENCE_CALLS // 2]

    tracer = None
    if args.trace:
        import spans

        tracer = spans.install(spans.Tracer())
    tally = Tally()
    units = 0
    start = time.perf_counter()
    try:
        while True:
            workload.unit(tally)
            units += 1
            if time.perf_counter() - start >= args.share:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    timed_s = time.perf_counter() - start - tally.reference_s

    report = {
        "setup_s": setup_s,
        "setup_reference_s": setup_reference_s,
        "startup_import_s": import_s,
        "startup_modules": modules,
        "timed_s": timed_s,
        "units": units,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "ops": tally.ops,
        "notes": tally.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracer.summary(timed_s)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

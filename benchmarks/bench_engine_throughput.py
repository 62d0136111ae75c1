"""Engine micro-benchmarks.

Not a paper artifact — keeps the simulator's performance visible so the
sweep benchmarks stay laptop-scale (measure before optimising; these
numbers are the baseline any engine change is judged against).  The
timed cases also persist machine-readable numbers into the current
commit's history bucket of the repo's ``BENCH_engine.json``, so every
commit has a throughput trajectory point to diff against.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.baselines.flooding import make_flood_new_factory
from repro.bench.history import default_bench_path, record_bucket, time_ms
from repro.core.algorithm1 import make_algorithm1_factory
from repro.experiments.scenarios import hinet_interval_scenario
from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.graphs.generators.static import clustered_star_arrays, ring_lattice_arrays
from repro.sim import fastpath
from repro.sim.engine import SynchronousEngine, run
from repro.sim.topology import CSRNetwork

BENCH_DIR = Path(__file__).resolve().parent


def test_engine_round_throughput(benchmark):
    """Full Algorithm-1 run on a 100-node, 126-round scenario."""
    scenario = hinet_interval_scenario(
        n0=100, theta=30, k=8, alpha=5, L=2, seed=47, verify=False
    )
    T = int(scenario.params["T"])

    def go():
        return run(
            scenario.trace,
            make_algorithm1_factory(T=T, M=7),
            k=8,
            initial=scenario.initial,
            max_rounds=7 * T,
        )

    res = benchmark(go)
    assert res.complete


def test_engine_fast_vs_reference(benchmark):
    """The full-run case on both engines: identical results, ≥3× faster.

    The equality assertion repeats what tests/test_columnar.py proves so
    the recorded speedup can never silently come from diverging behaviour.
    """
    scenario = hinet_interval_scenario(
        n0=100, theta=30, k=8, alpha=5, L=2, seed=47, verify=False
    )
    T = int(scenario.params["T"])
    factory = make_algorithm1_factory(T=T, M=7)

    def go(engine):
        return run(
            scenario.trace, factory, k=8, initial=scenario.initial,
            max_rounds=7 * T, engine=engine,
        )

    ref_result = go("reference")
    fast_result = go("fast")
    assert fast_result.outputs == ref_result.outputs
    assert fast_result.metrics == ref_result.metrics
    assert fast_result.complete and ref_result.complete

    ref_stats = time_ms(lambda: go("reference"), repeats=5)
    fast_stats = time_ms(lambda: go("fast"), repeats=5)
    speedup = ref_stats["median_ms"] / fast_stats["median_ms"]
    record_bucket(default_bench_path(BENCH_DIR), {"algorithm1_full_run_n100_r126": {
        "scenario": "hinet_interval(n0=100, theta=30, k=8, alpha=5, L=2, seed=47)",
        "rounds": ref_result.metrics.rounds,
        "tokens_sent": ref_result.metrics.tokens_sent,
        "reference_median_ms": ref_stats["median_ms"],
        "fast_median_ms": fast_stats["median_ms"],
        "speedup": round(speedup, 2),
        "results_identical": True,
    }})
    assert speedup >= 3.0, f"fast path only {speedup:.1f}x faster"

    benchmark(lambda: go("fast"))


def test_columnar_flood_round_scale(benchmark):
    """One flooding round at n=10⁵ and n=10⁶ on the vectorised tier.

    A single packed segment-OR delivery round
    over a degree-8 ring lattice with k=64 tokens, no per-node Python.
    ``materialize_outputs=False`` keeps the measurement on the round
    kernel (materialising 10⁶ frozensets would dominate and no scale
    consumer asks for them).
    """
    factory = make_flood_new_factory()
    cases = {}
    for n in (100_000, 1_000_000):
        net = CSRNetwork(ring_lattice_arrays(n, 8))
        TA0 = fastpath.pack_single_tokens(np.arange(n) % 64, 64)

        def one_round(n=n, net=net, TA0=TA0):
            return fastpath.run_columnar(
                SynchronousEngine(engine="fast"), net, "flood_new", {},
                64, TA0.copy(), 1, materialize_outputs=False,
            )

        res = one_round()
        assert res.metrics.messages_sent == n
        repeats = 5 if n <= 100_000 else 3
        cases[n] = time_ms(one_round, repeats=repeats)

    record_bucket(default_bench_path(BENCH_DIR), {
        "columnar_flood_round_n100000": {
            "scenario": "ring_lattice_arrays(n=100000, degree=8), flood_new, k=64, 1 round",
            **cases[100_000],
        },
        "columnar_flood_round_n1000000": {
            "scenario": "ring_lattice_arrays(n=1000000, degree=8), flood_new, k=64, 1 round",
            **cases[1_000_000],
        },
    })

    small = CSRNetwork(ring_lattice_arrays(100_000, 8))
    TA_small = fastpath.pack_single_tokens(np.arange(100_000) % 64, 64)
    benchmark(lambda: fastpath.run_columnar(
        SynchronousEngine(engine="fast"), small, "flood_new", {},
        64, TA_small.copy(), 1, materialize_outputs=False,
    ))


def test_columnar_alg1_sweep_n10000(benchmark):
    """Full Algorithm-1 packed-state sweep at n=10⁴."""
    n, theta, k = 10_000, 300, 16
    net = CSRNetwork(clustered_star_arrays(n, theta))
    TA0 = fastpath.pack_single_tokens(np.arange(n) % k, k)

    def go():
        return fastpath.run_columnar(
            SynchronousEngine(engine="fast"), net, "algorithm1",
            {"T": 12, "M": 6, "strict": False}, k, TA0.copy(), 72,
            materialize_outputs=False,
        )

    res = go()
    assert res.metrics.rounds == 72
    stats = time_ms(go, repeats=5)
    record_bucket(default_bench_path(BENCH_DIR), {"columnar_alg1_run_n10000": {
        "scenario": f"clustered_star_arrays(n={n}, theta={theta}), algorithm1(T=12, M=6), k={k}, 72 rounds",
        "rounds": res.metrics.rounds,
        "tokens_sent": res.metrics.tokens_sent,
        **stats,
    }})

    benchmark(go)


def test_hinet_generation_throughput(benchmark):
    """Scenario generation incl. hierarchy validation (the sweep hot path)."""
    params = HiNetParams(
        n=100, theta=30, num_heads=30, T=18, phases=7, L=2,
        reaffiliation_p=0.1, churn_p=0.02,
    )
    scen = benchmark(generate_hinet, params, 51)
    assert scen.trace.horizon == 126

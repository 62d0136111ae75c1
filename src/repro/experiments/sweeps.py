"""Parameter sweeps and ablations (the extension figures X1–X4 of DESIGN.md).

Each sweep runs the paired algorithms on the *same* verified scenarios
across a parameter grid and reports measured cost next to the analytic
prediction, so benchmark output directly shows where the paper's claimed
shape — HiNet winning communication by roughly 2× at equal-or-better
time — holds and where it degrades (e.g. re-affiliation rates approaching
the cluster size).

All cells execute through the registry
(:func:`repro.experiments.runner.execute`), so every sweep accepts a
``cache`` argument (directory path or
:class:`~repro.experiments.cache.ResultCache`): with a warm cache a
re-run performs zero engine executions and an interrupted sweep resumes
from the cells it already computed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.analysis import (
    CostParams,
    hinet_interval_comm,
    hinet_one_comm,
    klo_interval_comm,
    klo_one_comm,
)
from ..sim.rng import SeedLike, derive_seed
from .cache import CacheLike
from .parallel import parallel_map
from .runner import execute
from .scenarios import hinet_interval_scenario, hinet_one_scenario

__all__ = [
    "sweep_alpha_L",
    "sweep_k",
    "sweep_n",
    "sweep_reaffiliation",
]

# Every sweep fans its cells out through ``parallel_map``: cells are
# independent seeded simulations, the cell functions below are
# module-level (hence picklable), and results come back in input order —
# so ``processes=1`` (the default) and ``processes=N`` give identical
# rows.  Seeds are derived per cell *value*, never per worker.  The cache
# handle (just a directory path) pickles into the workers with the job.


def _interval_pair_row(
    n0: int, theta: int, k: int, alpha: int, L: int,
    reaffiliation_p: float, seed: SeedLike, cache: CacheLike,
) -> Dict[str, object]:
    """Run Algorithm 1 and T-interval KLO on one shared scenario."""
    scenario = hinet_interval_scenario(
        n0=n0, theta=theta, k=k, alpha=alpha, L=L,
        reaffiliation_p=reaffiliation_p, seed=seed, verify=False,
    )
    hinet = execute("algorithm1", scenario, cache=cache)
    klo = execute("klo-interval", scenario, cache=cache)
    params = CostParams(
        n0=n0, theta=theta, nm=float(scenario.params["nm"]),
        nr=float(scenario.params["nr"]), k=k, alpha=alpha, L=L,
    )
    return {
        "n": n0,
        "k": k,
        "alpha": alpha,
        "L": L,
        "hinet_comm": hinet.tokens_sent,
        "klo_comm": klo.tokens_sent,
        "comm_ratio": klo.tokens_sent / max(hinet.tokens_sent, 1),
        "hinet_done": hinet.completion_round,
        "klo_done": klo.completion_round,
        "analytic_hinet_comm": hinet_interval_comm(params),
        "analytic_klo_comm": klo_interval_comm(params),
        "hinet_complete": hinet.complete,
        "klo_complete": klo.complete,
    }


def _interval_pair_cell(args) -> Dict[str, object]:
    """Picklable single-cell wrapper for the process pool."""
    return _interval_pair_row(*args)


def sweep_n(
    ns: Sequence[int] = (40, 80, 120, 160, 200),
    k: int = 8,
    alpha: int = 5,
    L: int = 2,
    theta_frac: float = 0.3,
    seed: SeedLike = 17,
    processes: Optional[int] = 1,
    cache: CacheLike = None,
) -> List[Dict[str, object]]:
    """X1: communication/time vs network size (θ scales as ``theta_frac·n``)."""
    jobs = [
        (n0, max(int(n0 * theta_frac), alpha), k, alpha, L, 0.1,
         derive_seed(seed, "n", n0), cache)
        for n0 in ns
    ]
    return parallel_map(_interval_pair_cell, jobs, processes=processes)


def sweep_k(
    ks: Sequence[int] = (2, 4, 8, 16, 32),
    n0: int = 100,
    theta: int = 30,
    alpha: int = 5,
    L: int = 2,
    seed: SeedLike = 23,
    processes: Optional[int] = 1,
    cache: CacheLike = None,
) -> List[Dict[str, object]]:
    """X2a: cost vs token count (phase length grows as ``k + αL``)."""
    jobs = [
        (n0, theta, k, alpha, L, 0.1, derive_seed(seed, "k", k), cache)
        for k in ks
    ]
    return parallel_map(_interval_pair_cell, jobs, processes=processes)


def _reaffiliation_cell(args) -> Dict[str, object]:
    p, n0, theta, k, L, seed, cache = args
    scenario = hinet_one_scenario(
        n0=n0, theta=theta, k=k, L=L,
        reaffiliation_p=p, head_churn=2,
        seed=seed, verify=False,
    )
    hinet = execute("algorithm2", scenario, cache=cache)
    klo = execute("klo-one", scenario, cache=cache)
    params = CostParams(
        n0=n0, theta=theta, nm=float(scenario.params["nm"]),
        nr=float(scenario.params["nr"]), k=k, alpha=1, L=L,
    )
    return {
        "reaffiliation_p": p,
        "empirical_nr": round(float(scenario.params["nr"]), 2),
        "hinet_comm": hinet.tokens_sent,
        "klo_comm": klo.tokens_sent,
        "comm_ratio": klo.tokens_sent / max(hinet.tokens_sent, 1),
        "hinet_done": hinet.completion_round,
        "klo_done": klo.completion_round,
        "analytic_hinet_comm": hinet_one_comm(params),
        "analytic_klo_comm": klo_one_comm(params),
        "hinet_complete": hinet.complete,
    }


def sweep_reaffiliation(
    ps: Sequence[float] = (0.0, 0.1, 0.3, 0.5, 0.8),
    n0: int = 100,
    theta: int = 30,
    k: int = 8,
    L: int = 2,
    seed: SeedLike = 29,
    processes: Optional[int] = 1,
    cache: CacheLike = None,
) -> List[Dict[str, object]]:
    """X2b: Algorithm 2 vs 1-interval KLO as member churn rises.

    The paper's advantage hinges on :math:`n_r \\ll n_0`; this sweep shows
    the HiNet saving eroding (but not vanishing) with re-affiliation
    pressure, since member uploads are the only churn-sensitive term.
    """
    jobs = [
        (p, n0, theta, k, L, derive_seed(seed, "p", int(p * 1000)), cache)
        for p in ps
    ]
    return parallel_map(_reaffiliation_cell, jobs, processes=processes)


def _alpha_L_cell(args) -> Dict[str, object]:
    alpha, L, n0, theta, k, seed, cache = args
    scenario = hinet_interval_scenario(
        n0=n0, theta=theta, k=k, alpha=alpha, L=L,
        reaffiliation_p=0.1, head_churn=0,
        seed=seed, verify=False,
    )
    a1 = execute("algorithm1", scenario, cache=cache)
    a1s = execute("algorithm1-stable", scenario, cache=cache)
    return {
        "alpha": alpha,
        "L": L,
        "T": scenario.params["T"],
        "alg1_comm": a1.tokens_sent,
        "alg1_done": a1.completion_round,
        "alg1_stable_comm": a1s.tokens_sent,
        "alg1_stable_done": a1s.completion_round,
        "alg1_complete": a1.complete,
        "alg1_stable_complete": a1s.complete,
    }


def sweep_alpha_L(
    alphas: Sequence[int] = (1, 2, 5, 8),
    Ls: Sequence[int] = (1, 2, 3),
    n0: int = 100,
    theta: int = 30,
    k: int = 8,
    seed: SeedLike = 31,
    processes: Optional[int] = 1,
    cache: CacheLike = None,
) -> List[Dict[str, object]]:
    """X3: the α / L design-choice ablation.

    α trades stability demands (``T = k + αL`` grows) against phase count
    (``⌈θ/α⌉ + 1`` shrinks); L reflects backbone geometry.  Also runs the
    Remark-1 stable-heads variant to quantify its saving.
    """
    jobs = [
        (alpha, L, n0, theta, k, derive_seed(seed, "aL", alpha, L), cache)
        for alpha in alphas
        for L in Ls
    ]
    return parallel_map(_alpha_L_cell, jobs, processes=processes)

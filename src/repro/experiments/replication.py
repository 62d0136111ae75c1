"""Multi-seed replication: mean, spread and confidence intervals.

Single-seed numbers can mislead; this module re-runs any
seed-parameterised experiment across independent seeds and reports
summary statistics per metric.  Used by the extension benches to show
the HiNet/KLO communication ratio with a confidence interval rather than
a point estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..sim.rng import SeedLike, derive_seed
from .parallel import parallel_map

__all__ = [
    "MetricSummary",
    "replicate",
    "replicate_records",
    "summarize",
]

#: t-distribution 97.5 % quantiles for small sample sizes (df 1..30);
#: beyond 30 the normal 1.96 is close enough.  Hard-coded so the module
#: works without scipy (which remains optional).
_T975 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


@dataclass(frozen=True)
class MetricSummary:
    """Summary statistics of one metric over replications."""

    mean: float
    std: float
    minimum: float
    maximum: float
    ci95_half_width: float
    n: int

    @property
    def ci95(self) -> tuple:
        """The 95 % confidence interval for the mean."""
        return (self.mean - self.ci95_half_width, self.mean + self.ci95_half_width)

    def __str__(self) -> str:
        return f"{self.mean:.1f} ± {self.ci95_half_width:.1f} (n={self.n})"


def summarize(values: Sequence[float]) -> MetricSummary:
    """Mean / sample std / 95 % t-interval of a sample (n >= 1)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("cannot summarize an empty sample")
    n = len(vals)
    mean = sum(vals) / n
    if n == 1:
        return MetricSummary(mean=mean, std=0.0, minimum=mean, maximum=mean,
                             ci95_half_width=0.0, n=1)
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    std = math.sqrt(var)
    t = _T975[min(n - 2, len(_T975) - 1)] if n - 1 <= len(_T975) else 1.96
    half = t * std / math.sqrt(n)
    return MetricSummary(mean=mean, std=std, minimum=min(vals),
                         maximum=max(vals), ci95_half_width=half, n=n)


def replicate(
    experiment: Callable[[SeedLike], Mapping[str, float]],
    seeds: Sequence[SeedLike] = None,
    replications: int = 10,
    base_seed: SeedLike = 0,
    processes: Optional[int] = 1,
) -> Dict[str, MetricSummary]:
    """Run ``experiment(seed)`` across seeds and summarize each metric.

    Parameters
    ----------
    experiment:
        Callable returning a flat ``{metric name: value}`` mapping; any
        non-numeric values are ignored.
    seeds:
        Explicit seed list; defaults to ``replications`` seeds derived
        from ``base_seed`` (collision-resistant).
    processes:
        Worker processes (``1`` = serial, ``None`` = all cores).  With
        more than one, ``experiment`` must be picklable (module-level);
        results are identical to a serial run either way.
    """
    if seeds is None:
        seeds = [derive_seed(base_seed, "rep", i) for i in range(replications)]
    if not seeds:
        raise ValueError("need at least one seed")
    rows = parallel_map(experiment, list(seeds), processes=processes)
    samples: Dict[str, List[float]] = {}
    for row in rows:
        for key, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            samples.setdefault(key, []).append(float(value))
    return {key: summarize(vals) for key, vals in samples.items()}


def _algorithm_record_cell(
    algorithm: str,
    scenario_builder: Callable[..., Any],
    scenario_kwargs: Dict[str, Any],
    cache: Any,
    overrides: Dict[str, Any],
    seed: SeedLike,
) -> Any:
    """Module-level (picklable) cell: fresh seeded scenario → full RunRecord."""
    from .runner import execute

    scenario = scenario_builder(seed=seed, **scenario_kwargs)
    return execute(algorithm, scenario, cache=cache, **overrides)


def replicate_records(
    algorithm,
    scenario_builder: Callable[..., Any],
    *,
    replications: int = 10,
    seeds: Optional[Sequence[SeedLike]] = None,
    base_seed: SeedLike = 0,
    processes: Optional[int] = 1,
    cache=None,
    scenario_kwargs: Optional[Mapping[str, Any]] = None,
    **overrides,
) -> List[Any]:
    """Replicate one registered algorithm, keeping the full records.

    Each replication builds an independent scenario from
    ``scenario_builder`` and runs it through
    :func:`~repro.experiments.runner.execute`; this returns the
    :class:`~repro.experiments.runner.RunRecord` per seed, timelines
    attached — the feed for cross-run aggregation
    (:func:`repro.obs.merge_timelines` and the ``repro report``
    dashboard).  Seeding, caching and parallelism behave exactly as in
    :func:`replicate`; records come back in seed order regardless of
    ``processes``.
    """
    name = algorithm if isinstance(algorithm, str) else algorithm.name
    if seeds is None:
        seeds = [derive_seed(base_seed, "rep", i) for i in range(replications)]
    if not seeds:
        raise ValueError("need at least one seed")
    cell = partial(
        _algorithm_record_cell,
        name,
        scenario_builder,
        dict(scenario_kwargs or {}),
        cache,
        dict(overrides),
    )
    return parallel_map(cell, list(seeds), processes=processes)

"""Cross-commit trend dashboards over the ``BENCH_*.json`` history series.

:func:`render_trend` turns the append-only per-commit buckets
(:func:`repro.bench.history.ordered_history`) into the ``repro bench
--report`` dashboard: per case, the tracked metric's trajectory across
commits as an ASCII sparkbar column plus nearest-rank percentile bands —
the same ``_percentile`` / ``_bar`` primitives the ``repro report``
progress dashboard uses (:mod:`repro.obs.aggregate`), so the two
dashboards read the same way.

The tracked metric is the machine-portable ratio where the case records
one — ``speedup``, or ``overhead`` for an overhead pair — and
``median_ms`` otherwise (absolute-wall-clock cases: meaningful *within*
one machine's history, labelled as such).
Cases that record analytical-envelope columns
(:func:`repro.bench.runner.measure_case` on benign families) additionally
show the latest measured/predicted token ratio and whether the case sat
inside its envelope.  ``markdown=True`` emits a pipe table for
``$GITHUB_STEP_SUMMARY``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.aggregate import _bar, _percentile
from .history import ordered_history

__all__ = ["render_trend", "trend_series"]


def trend_series(
    data: Dict[str, object],
    cases: Optional[Sequence[str]] = None,
) -> Dict[str, Tuple[str, List[Tuple[str, float]]]]:
    """Per-case metric trajectories: ``{case: (metric, [(label, value)…])}``.

    Buckets are in recording order; a case absent from a bucket simply
    skips it (partial fleet runs leave gaps, not zeros).  ``cases``
    filters (and orders) the output; default is every case seen in any
    bucket, alphabetically.
    """
    buckets = ordered_history(data)
    series: Dict[str, List[Tuple[str, float]]] = {}
    metric_for: Dict[str, str] = {}
    for label, bucket_cases, _meta in buckets:
        for case, stats in bucket_cases.items():
            if not isinstance(stats, dict):
                continue
            metric = next((key for key in ("speedup", "overhead")
                           if isinstance(stats.get(key), (int, float))),
                          "median_ms")
            value = stats.get(metric)
            if not isinstance(value, (int, float)):
                continue
            # a case that ever recorded a ratio is tracked by that ratio
            if metric == "median_ms" and metric_for.get(case, metric) != metric:
                continue
            if metric_for.get(case) != metric:
                if metric != "median_ms" and case in series:
                    series[case] = []  # upgrade: drop ms points
                metric_for[case] = metric
            series.setdefault(case, []).append((label, float(value)))
    wanted = list(cases) if cases is not None else sorted(series)
    return {
        case: (metric_for[case], series[case])
        for case in wanted
        if case in series and series[case]
    }


def _fmt(metric: str, value: float) -> str:
    return f"{value:.1f}ms" if metric == "median_ms" else f"{value:.2f}x"


def _latest_envelope(
    data: Dict[str, object], case: str
) -> Optional[Tuple[float, Optional[bool]]]:
    """The newest recorded ``(envelope_ratio_tokens, envelope_ok)`` for a
    case, or ``None`` when no bucket ever recorded envelope columns."""
    for _label, bucket_cases, _meta in reversed(ordered_history(data)):
        stats = bucket_cases.get(case)
        if not isinstance(stats, dict):
            continue
        ratio = stats.get("envelope_ratio_tokens")
        if isinstance(ratio, (int, float)):
            ok = stats.get("envelope_ok")
            return float(ratio), (bool(ok) if ok is not None else None)
    return None


def _delta(values: List[float]) -> Optional[float]:
    """Fractional change of the latest point vs the one before it."""
    if len(values) < 2 or values[-2] == 0:
        return None
    return (values[-1] - values[-2]) / values[-2]


def render_trend(
    data: Dict[str, object],
    cases: Optional[Sequence[str]] = None,
    markdown: bool = False,
    width: int = 24,
) -> str:
    """The ``repro bench --report`` dashboard (see module docstring)."""
    buckets = ordered_history(data)
    all_series = trend_series(data, cases=cases)
    if not buckets or not all_series:
        return ("no history buckets recorded yet — run 'repro bench --quick' "
                "to record one")

    header = (
        f"benchmark trend — {len(buckets)} bucket(s), "
        f"oldest → newest: {' '.join(label for label, _, _ in buckets)}"
    )
    note = (
        "single bucket so far — trends need >= 2; showing latest values"
        if len(buckets) < 2 else None
    )

    if markdown:
        lines = ["### Benchmark fleet trend", "", header, ""]
        if note:
            lines += [f"_{note}_", ""]
        lines += [
            "| case | metric | points | p10 | p50 | p90 | latest "
            "| Δ vs prev | env ratio | in env |",
            "| --- | --- | ---: | ---: | ---: | ---: | ---: | ---: "
            "| ---: | --- |",
        ]
        for case, (metric, points) in all_series.items():
            values = sorted(value for _, value in points)
            latest = points[-1][1]
            delta = _delta([value for _, value in points])
            delta_s = "-" if delta is None else f"{delta:+.1%}"
            env = _latest_envelope(data, case)
            env_ratio = "-" if env is None else f"{env[0]:.3f}"
            env_ok = "-"
            if env is not None and env[1] is not None:
                env_ok = "yes" if env[1] else "**NO**"
            lines.append(
                f"| {case} | {metric} | {len(points)} "
                f"| {_fmt(metric, _percentile(values, 0.10))} "
                f"| {_fmt(metric, _percentile(values, 0.50))} "
                f"| {_fmt(metric, _percentile(values, 0.90))} "
                f"| {_fmt(metric, latest)} | {delta_s} "
                f"| {env_ratio} | {env_ok} |"
            )
        return "\n".join(lines)

    lines = [header]
    if note:
        lines.append(f"({note})")
    for case, (metric, points) in all_series.items():
        lines.append("")
        lines.append(f"{case}  [{metric}]")
        peak = max(value for _, value in points)
        label_w = max(len(label) for label, _ in points)
        for label, value in points:
            lines.append(
                f"  {label:<{label_w}}  {_fmt(metric, value):>10}  "
                f"{_bar(value, peak, width)}"
            )
        values = sorted(value for _, value in points)
        delta = _delta([value for _, value in points])
        delta_s = "" if delta is None else f"  Δ vs prev {delta:+.1%}"
        lines.append(
            f"  p10 {_fmt(metric, _percentile(values, 0.10))}"
            f"  p50 {_fmt(metric, _percentile(values, 0.50))}"
            f"  p90 {_fmt(metric, _percentile(values, 0.90))}"
            f"  latest {_fmt(metric, points[-1][1])}{delta_s}"
        )
        env = _latest_envelope(data, case)
        if env is not None:
            ratio, ok = env
            ok_s = "" if ok is None else ("  inside" if ok else "  OUTSIDE")
            lines.append(
                f"  envelope: measured/predicted tokens {ratio:.3f}{ok_s}"
            )
    return "\n".join(lines)

"""Benchmark timing + the append-only ``BENCH_*.json`` time series.

This module owns the two things every benchmark producer shares:

* **wall-clock measurement** — :func:`time_ms` (single callable) and
  :func:`time_ms_paired` (two callables with interleaved A B A B samples,
  so engine-vs-engine ratios measure kernels rather than allocator
  drift).  The ``bench_*.py`` scripts and the fleet all time through
  this one implementation;

* **persistence** — ``BENCH_engine.json`` holds ``{"meta": …,
  "history": {commit: bucket}}``: an append-only time series with one
  *bucket* per commit, which the fleet gates against and REPORT.md
  renders.

Bucket semantics (and the bugs they fix):

* buckets are keyed by the **short commit hash**, suffixed ``-dirty``
  when the working tree has uncommitted changes — a dirty-tree run can
  therefore never overwrite the clean commit's numbers;
* recording a case that already exists in the bucket **merges** the new
  stat keys into the old dict instead of replacing it, so two producers
  (or two partial runs) on the same commit accumulate instead of
  clobbering each other;
* each bucket carries a reserved ``"_meta"`` entry (``seq``, an ever-
  increasing ordinal; ``recorded_at``; free-form keys like the fleet
  tier) — JSON objects written with ``sort_keys`` lose insertion order,
  so ``seq`` is what makes the series *ordered* and the trend dashboard
  possible.  Legacy buckets without ``_meta`` sort first.

Stats dicts stay flat (numbers/strings/bools only) to stay diffable.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from statistics import mean, median
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "current_commit",
    "default_bench_path",
    "load_bench",
    "ordered_history",
    "previous_bucket",
    "record_bucket",
    "time_ms",
    "time_ms_paired",
]

#: Default file name the fleet records to, searched for upward from cwd.
BENCH_BASENAME = "BENCH_engine.json"

PathLike = Union[str, Path]


# -- timing -------------------------------------------------------------------

def time_ms(fn: Callable[[], object], repeats: int = 5) -> Dict[str, float]:
    """Wall-clock one callable: best/median/mean over ``repeats`` runs, in ms.

    One untimed warm-up run first, so memoized topology caches (which any
    real sweep would hit warm) don't distort the first sample.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000.0)
    return {
        "best_ms": round(min(samples), 3),
        "median_ms": round(median(samples), 3),
        "mean_ms": round(mean(samples), 3),
        "repeats": repeats,
    }


def time_ms_paired(
    fn_a: Callable[[], object],
    fn_b: Callable[[], object],
    repeats: int = 5,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Time two callables with interleaved samples (A B A B …), in ms.

    Engine-vs-engine ratios measured as sequential blocks pick up
    allocator/GC drift — whichever engine runs second inherits the first
    one's heap state, which skews small differences by tens of percent.
    Alternating the samples lands the drift on both sides equally, so the
    ratio of the two medians reflects the kernels, not the ordering.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    fn_a()
    fn_b()
    samples_a, samples_b = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        samples_a.append((time.perf_counter() - t0) * 1000.0)
        t0 = time.perf_counter()
        fn_b()
        samples_b.append((time.perf_counter() - t0) * 1000.0)

    def stats(samples):
        return {
            "best_ms": round(min(samples), 3),
            "median_ms": round(median(samples), 3),
            "mean_ms": round(mean(samples), 3),
            "repeats": repeats,
        }

    return stats(samples_a), stats(samples_b)


# -- commit identity ----------------------------------------------------------

def _git(args: List[str], cwd: Path) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout


def current_commit(repo_dir: PathLike = ".") -> str:
    """Bucket key for a run: short HEAD hash, ``-dirty``-suffixed when the
    working tree has uncommitted changes, ``"unknown"`` outside git.

    The suffix is what keeps an uncommitted-state run from silently
    overwriting the numbers recorded for the clean commit it forked from.
    """
    cwd = Path(repo_dir)
    sha = (_git(["rev-parse", "--short", "HEAD"], cwd) or "").strip()
    if not sha:
        return "unknown"
    status = _git(["status", "--porcelain"], cwd)
    dirty = bool(status and status.strip())
    return f"{sha}-dirty" if dirty else sha


def default_bench_path(start: PathLike = ".") -> Path:
    """Locate ``BENCH_engine.json``: nearest existing one walking up from
    ``start`` (the repo root when run from a checkout), else ``start``'s
    own ``BENCH_engine.json`` (created on first record)."""
    base = Path(start).resolve()
    for candidate in (base, *base.parents):
        path = candidate / BENCH_BASENAME
        if path.exists():
            return path
    return base / BENCH_BASENAME


# -- persistence --------------------------------------------------------------

def load_bench(path: PathLike) -> Dict[str, object]:
    """The parsed bench file, or an empty skeleton when it doesn't exist."""
    path = Path(path)
    if not path.exists():
        return {"meta": {}, "history": {}}
    return json.loads(path.read_text())


def _next_seq(history: Dict[str, Dict[str, object]]) -> int:
    top = 0
    for bucket in history.values():
        meta = bucket.get("_meta")
        if isinstance(meta, dict) and isinstance(meta.get("seq"), int):
            top = max(top, meta["seq"])
    return top + 1


def record_bucket(
    path: PathLike,
    case_stats: Dict[str, Dict[str, object]],
    *,
    commit: Optional[str] = None,
    bucket_meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Merge case stats into the commit's history bucket (creating the file).

    ``commit=None`` keys the bucket by :func:`current_commit` of the bench
    file's directory.  An existing bucket is *extended*: new cases are
    added, and a case recorded twice has its stat keys merged (so a
    re-run refreshes numbers without dropping keys the new run didn't
    produce).  ``bucket_meta`` keys land in the bucket's ``"_meta"`` entry alongside
    the auto-assigned ``seq``/``recorded_at``.
    """
    path = Path(path)
    data = load_bench(path)
    data["meta"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generated_by": "repro.bench.history",
    }
    history = data.setdefault("history", {})
    label = commit if commit else current_commit(path.parent)
    bucket = history.get(label)
    if bucket is None:
        bucket = history[label] = {}
    meta = bucket.setdefault("_meta", {})
    if "seq" not in meta:
        meta["seq"] = _next_seq({k: v for k, v in history.items() if v is not bucket})
    meta["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if bucket_meta:
        meta.update(bucket_meta)
    for case, stats in case_stats.items():
        existing = bucket.get(case)
        if isinstance(existing, dict):
            existing.update(stats)  # merge: a partial re-run must not clobber
        else:
            bucket[case] = dict(stats)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


# -- reading the series -------------------------------------------------------

Bucket = Tuple[str, Dict[str, Dict[str, object]], Dict[str, object]]


def ordered_history(data: Dict[str, object]) -> List[Bucket]:
    """History buckets as ``(label, cases, meta)`` in recording order.

    Ordered by the ``_meta.seq`` ordinal (``sort_keys`` JSON output loses
    insertion order); legacy buckets without one sort first, by label.
    ``cases`` excludes the reserved ``_meta`` entry.
    """
    history = data.get("history") or {}
    buckets: List[Tuple[Tuple[int, str], Bucket]] = []
    for label, bucket in history.items():
        if not isinstance(bucket, dict):
            continue
        meta = bucket.get("_meta")
        meta = dict(meta) if isinstance(meta, dict) else {}
        seq = meta.get("seq")
        order = (seq if isinstance(seq, int) else 0, label)
        cases = {
            case: stats
            for case, stats in bucket.items()
            if case != "_meta" and isinstance(stats, dict)
        }
        buckets.append((order, (label, cases, meta)))
    return [bucket for _, bucket in sorted(buckets, key=lambda item: item[0])]


def previous_bucket(
    data: Dict[str, object], current_label: str
) -> Optional[Bucket]:
    """The most recent bucket recorded under a *different* label, or
    ``None`` on a fresh series — the baseline a new fleet run gates
    against (its own earlier same-commit run must not be its baseline)."""
    candidates = [b for b in ordered_history(data) if b[0] != current_label]
    return candidates[-1] if candidates else None

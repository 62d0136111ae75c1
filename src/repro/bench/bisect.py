"""Regression bisection: from a tripped fleet gate to a (case, engine) pair.

A fleet gate failure says *some* case regressed; :func:`bisect_regression`
narrows it.  For every flagged case it re-measures the case's **engine
siblings** — the matrix cells sharing (algorithm, family, n, obs) and
differing only in engine — at higher repeats with the same injection
hooks, then names the offender: the sibling whose speedup fell furthest
below its own history floor (a regression in one engine's kernels shows
up in exactly that engine's ratio; a scenario- or algorithm-level change
drags every sibling down together, which the sibling table makes
obvious).

When the violation is about *state*, not time — a ``counter`` drift or an
``equivalence`` failure — wall-clock bisection cannot explain it, so the
report additionally invokes :func:`repro.obs.diff_engines` on the flagged
case's scenario and attaches the full divergence report (first diverging
round, node, and state delta).

The CLI front end is ``repro bench --bisect`` (and CI's bench-fleet job
on failure); :class:`BisectReport` renders with the same fixed-width
table formatter as every other repro report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .matrix import BenchCase, build_scenario
from .runner import CaseResult, GateViolation, measure_case

__all__ = ["BisectReport", "bisect_regression"]

#: Violation kinds explainable by state divergence rather than timing.
_STATE_KINDS = ("equivalence", "counter")


@dataclass
class BisectReport:
    """Bisection outcome for one flagged case: the named offender pair,
    the sibling evidence table, and (for state drift) the divergence."""

    case: str
    engine: str
    kind: str
    detail: str
    siblings: List[Dict[str, object]] = field(default_factory=list)
    divergence: Optional[str] = None

    def format(self) -> str:
        lines = [
            "REGRESSION BISECTION",
            f"  offender: case={self.case} engine={self.engine} "
            f"[{self.kind}]",
            f"  {self.detail}",
        ]
        if self.siblings:
            from ..experiments.report import format_records

            lines += ["", "engine siblings (re-measured):",
                      format_records(self.siblings)]
        if self.divergence:
            lines += ["", self.divergence]
        return "\n".join(lines)


def _sibling_rows(
    results: Sequence[CaseResult],
    previous_cases: Dict[str, Dict[str, object]],
    threshold: Optional[float],
) -> List[Dict[str, object]]:
    rows = []
    for result in results:
        stats = result.stats
        previous = previous_cases.get(result.name) or {}
        prev_speedup = previous.get("speedup")
        allowed = (result.case.speedup_threshold if threshold is None
                   else threshold)
        floor = (
            float(prev_speedup) * (1.0 - allowed)
            if isinstance(prev_speedup, (int, float)) else None
        )
        speedup = stats.get("speedup")
        below = (
            floor is not None
            and isinstance(speedup, (int, float))
            and speedup < floor
        )
        rows.append({
            "case": result.name,
            "engine": result.case.engine,
            "median_ms": stats.get("median_ms"),
            "speedup": speedup if speedup is not None else "-",
            "prev_speedup": prev_speedup if prev_speedup is not None else "-",
            "floor": round(floor, 3) if floor is not None else "-",
            "verdict": "REGRESSED" if below else "ok",
            "_shortfall": (
                (floor - speedup) / floor if below and floor else 0.0
            ),
        })
    return rows


def bisect_regression(
    violations: Sequence[GateViolation],
    matrix: Sequence[BenchCase],
    previous_cases: Optional[Dict[str, Dict[str, object]]] = None,
    repeats: int = 5,
    inject: Optional[Dict[str, float]] = None,
    threshold: Optional[float] = None,
) -> List[BisectReport]:
    """Narrow each flagged case to its offending (case, engine) pair.

    ``matrix`` is the full case list the siblings are resolved from;
    ``inject`` is forwarded so self-tests reproduce the same injected
    slowdown during re-measurement; ``threshold=None`` uses each
    sibling's own ``speedup_threshold``.  One report per distinct
    flagged case, in violation order.
    """
    previous_cases = previous_cases or {}
    inject = inject or {}
    by_name = {case.name: case for case in matrix}
    reports: List[BisectReport] = []
    seen = set()
    for violation in violations:
        if violation.case in seen:
            continue
        seen.add(violation.case)
        flagged = by_name.get(violation.case)
        if flagged is None:
            reports.append(BisectReport(
                case=violation.case, engine=violation.engine,
                kind=violation.kind,
                detail=f"{violation.message} (case not in current matrix — "
                       "cannot re-measure siblings)",
            ))
            continue

        key = (flagged.algorithm, flagged.family, flagged.n, flagged.obs)
        siblings = [
            case for case in matrix
            if (case.algorithm, case.family, case.n, case.obs) == key
        ]
        results = [
            measure_case(case, repeats=repeats,
                         inject_ms=float(inject.get(case.name, 0.0)),
                         memory=False)
            for case in siblings
        ]
        rows = _sibling_rows(results, previous_cases, threshold)

        # offender: the sibling furthest below its own history floor;
        # the flagged pair itself when timing evidence is inconclusive
        # (state violations, fresh history)
        offender_case, offender_engine = flagged.name, flagged.engine
        regressed = [row for row in rows if row["verdict"] == "REGRESSED"]
        if regressed and violation.kind not in _STATE_KINDS:
            worst = max(regressed, key=lambda row: row["_shortfall"])
            offender_case = str(worst["case"])
            offender_engine = str(worst["engine"])
        for row in rows:
            row.pop("_shortfall", None)

        divergence = None
        if violation.kind in _STATE_KINDS:
            # counters/outputs moved: timing can't explain it — attach the
            # engine divergence report (first diverging round and node)
            from ..obs import diff_engines

            try:
                divergence = diff_engines(
                    flagged.algorithm, build_scenario(flagged)
                ).format()
            except Exception as exc:  # report the probe failure, don't mask
                divergence = f"(diff_engines probe failed: {exc})"

        reports.append(BisectReport(
            case=offender_case,
            engine=offender_engine,
            kind=violation.kind,
            detail=violation.message,
            siblings=rows,
            divergence=divergence,
        ))
    return reports

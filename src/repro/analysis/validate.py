"""Registry-wide measured-vs-predicted validation sweep.

The harness behind ``repro validate-model``: for every registered
algorithm, build the benign scenario family its model class assumes
(:func:`repro.experiments.scenarios.default_kind`), predict the
analytical envelope with :func:`repro.analysis.predict`, run the spec
through :func:`repro.experiments.runner.execute` (cache-served
where warm, ``obs="trace"`` so the causal trace's per-role breakdown
rides along), and report the measured/predicted ratio per metric.  A
benign-family case is **within** its envelope when every measured
counter is ≤ its predicted bound and completion matched the guarantee —
exactly the inequality the Table 2 rows claim.

Adversarial sweeps (``include_adversarial=True``) additionally report
the Haeupler–Kuhn Ω(nk/log n) floor: a round budget *below* the floor is
consistent with (and predicts) incompleteness, so those rows carry
``within=None`` — the floor is reported, never gated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..registry import AlgorithmSpec, all_specs, get_spec
from .predict import Prediction, predict

__all__ = ["failures", "table_rows", "validate_model"]


def _ratio(measured: int, bound: int) -> float:
    return round(measured / bound, 4) if bound else float("inf")


def _case_row(spec: AlgorithmSpec, scenario, pred: Prediction, rec,
              benign: bool) -> Dict[str, object]:
    """One sweep row: measured counters, bounds, ratios, verdict."""
    ratios = {
        "rounds": _ratio(rec.rounds, pred.rounds),
        "messages": _ratio(rec.messages_sent, pred.messages),
        "tokens": _ratio(rec.tokens_sent, pred.tokens),
    }
    guaranteed = spec.guarantee == "guaranteed"
    if benign:
        within: Optional[bool] = (
            all(r <= 1.0 for r in ratios.values())
            and (rec.complete or not guaranteed)
        )
    else:
        within = None  # adversarial: floor reported, never gated
    row: Dict[str, object] = {
        "algorithm": spec.name,
        "scenario": scenario.name,
        "family": "benign" if benign else "adversarial",
        "kind": pred.kind,
        "n": pred.n,
        "k": pred.k,
        "rounds": rec.rounds,
        "rounds_bound": pred.rounds,
        "rounds_ratio": ratios["rounds"],
        "messages": rec.messages_sent,
        "messages_bound": pred.messages,
        "messages_ratio": ratios["messages"],
        "tokens": rec.tokens_sent,
        "tokens_bound": pred.tokens,
        "tokens_ratio": ratios["tokens"],
        "tokens_form": pred.tokens_form,
        "complete": rec.complete,
        "within": within,
    }
    if pred.rounds_floor is not None:
        row["rounds_floor"] = pred.rounds_floor
        if not benign:
            # Budget below the Ω(nk/log n) floor: incompleteness is the
            # *predicted* outcome, not a model failure.
            row["floor_note"] = (
                "budget < floor; incompleteness predicted"
                if pred.budget < pred.rounds_floor
                else "budget >= floor"
            )
    timeline = getattr(rec.result, "timeline", None)
    if timeline is not None and getattr(timeline, "role_tokens", None):
        row["role_tokens"] = {
            role: sum(col) for role, col in timeline.role_tokens.items()
        }
    trace = getattr(rec.result, "causal_trace", None)
    if trace is not None and len(trace) > 0:
        last = max(r for r, _s, _role in trace.events.values())
        row["last_learn_round"] = last
    return row


def validate_model(
    n0: int = 40,
    k: int = 5,
    seed: int = 2013,
    engine: str = "fast",
    cache=None,
    algorithms: Optional[Sequence[str]] = None,
    include_adversarial: bool = False,
) -> List[Dict[str, object]]:
    """Sweep the registry: one measured-vs-predicted row per case.

    Every registered spec (or the requested subset) runs on its benign
    scenario family; with ``include_adversarial=True``, specs whose
    required params the adversarial scenario can satisfy additionally
    run against the Haeupler–Kuhn adversary and report the lower
    envelope.  Warm caches serve repeated sweeps without re-simulating.
    """
    from ..experiments.runner import execute
    from ..experiments.scenarios import default_kind, scenario_for

    specs = (
        [get_spec(name) for name in algorithms]
        if algorithms
        else list(all_specs())
    )
    rows: List[Dict[str, object]] = []
    for spec in specs:
        scenario = scenario_for(default_kind(spec), n0=n0, k=k, seed=seed)
        overrides = {"seed": seed} if spec.seeded else {}
        pred = predict(spec, scenario, **overrides)
        rec = execute(spec, scenario, engine=engine, cache=cache,
                      obs="trace", **overrides)
        rows.append(_case_row(spec, scenario, pred, rec, benign=True))

    if include_adversarial:
        adv = scenario_for("adversarial", n0=max(8, n0 // 2), k=k, seed=seed)
        for spec in specs:
            if not set(spec.required_params) <= set(adv.params):
                continue
            overrides = {"seed": seed} if spec.seeded else {}
            try:
                pred = predict(spec, adv, **overrides)
            except (LookupError, ValueError):
                continue
            rec = execute(spec, adv, engine=engine, cache=cache,
                          obs="trace", **overrides)
            rows.append(_case_row(spec, adv, pred, rec, benign=False))
    return rows


def failures(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """The benign rows whose measurement escaped the envelope."""
    return [row for row in rows if row.get("within") is False]


def table_rows(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rows flattened for table formatters (dict-valued columns dropped)."""
    out = []
    for row in rows:
        flat = {key: value for key, value in row.items()
                if not isinstance(value, dict)}
        flat["within"] = {True: "yes", False: "NO", None: "-"}[row["within"]]
        out.append(flat)
    return out

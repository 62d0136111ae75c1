"""Unified algorithm execution: registry specs in, :class:`RunRecord` out.

One function, :func:`execute`, runs *any* registered algorithm on a
scenario for its theorem-derived round budget: the spec (resolved from
:mod:`repro.registry` by name) validates the scenario's model parameters,
plans the node factory and budget, and the engine does the rest.

Runs are *data*: ``RunRecord`` round-trips through JSON
(:func:`repro.io.run_record_to_dict`), and passing ``cache=`` (a
directory or a :class:`~repro.experiments.cache.ResultCache`) keys each
execution by ``(spec name+version, scenario content, engine, overrides)``
— a warm cache replays the record without touching the engine, which is
what lets sweeps resume and replications skip already-computed cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..registry import AlgorithmSpec, get_spec
from ..sim.engine import RunResult, SynchronousEngine
from ..sim.linkmodel import ALL_TIERS, link_from_spec
from .cache import CacheLike, resolve_cache
from .scenarios import Scenario

__all__ = [
    "RunRecord",
    "execute",
]


@dataclass
class RunRecord:
    """Measured outcome of one (algorithm, scenario) execution.

    ``tokens_sent`` and ``completion_round`` are the paper's two cost
    axes; ``bound_rounds`` is the analytic budget the run was given.
    """

    algorithm: str
    scenario: str
    n: int
    k: int
    bound_rounds: int
    rounds: int
    completion_round: Optional[int]
    tokens_sent: int
    messages_sent: int
    complete: bool
    result: RunResult

    def row(self) -> Dict[str, object]:
        """Flat dict for the table formatters."""
        return {
            "algorithm": self.algorithm,
            "scenario": self.scenario,
            "n": self.n,
            "k": self.k,
            "bound_rounds": self.bound_rounds,
            "completion_round": self.completion_round,
            "tokens_sent": self.tokens_sent,
            "messages_sent": self.messages_sent,
            "complete": self.complete,
        }


def execute(
    algorithm: Union[str, AlgorithmSpec],
    scenario: Scenario,
    *,
    engine: str = "fast",
    cache: CacheLike = None,
    stop_when_complete: Optional[bool] = None,
    obs: str = "timeline",
    monitor: bool = False,
    stream=None,
    **overrides,
) -> RunRecord:
    """Run one registered algorithm on a scenario for its proven budget.

    Parameters
    ----------
    algorithm:
        A canonical registry name (``"algorithm1"``, ``"klo-interval"``,
        …; see ``repro list-algorithms``) or an :class:`AlgorithmSpec`.
    scenario:
        The verified scenario; its ``params`` must carry every key the
        spec's ``required_params`` names.
    engine:
        ``"fast"`` (default; the vectorised round loop where the factory
        advertises a kernel, bit-identical reference fallback
        otherwise) or ``"reference"``; any other name is a
        ``ValueError``, raised before the cache is consulted.
    cache:
        ``None`` (consult the ``REPRO_RESULT_CACHE`` environment
        variable), a directory path, or a
        :class:`~repro.experiments.cache.ResultCache`.  On a hit the
        cached record is returned without executing; on a miss the fresh
        record is stored.  Monitored runs bypass the cache (see the
        per-obs-level policy table in :mod:`repro.experiments.cache`).
    stop_when_complete:
        Override the spec's default omniscient-stop behaviour.
    obs:
        Telemetry level (:mod:`repro.obs`): ``"timeline"`` (default)
        attaches a :class:`~repro.obs.RunTimeline` to the result and it
        rides through the cache; ``"trace"`` adds to the timeline the
        causal first-learn trace (deterministic, so it also rides the
        cache, keyed separately by obs level); ``"record"`` adds to the
        timeline a replayable :class:`~repro.obs.RunRecording`
        (deterministic and engine-identical, so it also rides the
        cache) and no causal trace: the two levels are disjoint;
        ``"profile"`` adds wall-clock section timings and bypasses the
        cache (timings are not deterministic); ``"off"`` records
        nothing.
    monitor:
        Attach the spec's default runtime invariant monitors
        (:func:`repro.obs.default_monitors`) and collect their
        violations into ``record.result.violations``.  Monitored runs
        bypass the cache: violations are live diagnostics and are not
        archived, so replaying a cached record would silently drop them.
    stream:
        A live :class:`~repro.obs.TelemetryBus` fed while the engine
        runs (round events, monitor alerts, the closing summary; see
        :mod:`repro.obs.stream`).  Streaming is cache-compatible: a
        cache hit *replays* the archived timeline through the bus, so
        consumers see the same event stream either way.  Requires
        ``obs != "off"``.
    **overrides:
        Spec-specific knobs (``rounds=…``, ``strict=…``, ``A=…``,
        ``seed=…`` …); anything the spec does not declare raises
        ``TypeError``.
    """
    if engine not in ALL_TIERS:
        raise ValueError(f"engine must be 'reference' or 'fast', got {engine!r}")
    spec = algorithm if isinstance(algorithm, AlgorithmSpec) else get_spec(algorithm)
    spec.validate_scenario(scenario)

    unknown = set(overrides) - set(spec.overrides)
    if unknown:
        raise TypeError(
            f"algorithm {spec.name!r} does not accept override(s) "
            f"{sorted(unknown)} (accepted: {list(spec.overrides) or 'none'})"
        )
    plan = spec.plan(scenario, **overrides)
    stop = plan.stop_when_complete if stop_when_complete is None else stop_when_complete

    store = resolve_cache(cache)
    key = None
    # unseeded runs of seeded algorithms are not reproducible, so replaying
    # one from the cache would silently freeze fresh entropy — never cache
    reproducible = not (spec.seeded and plan.key_params.get("seed") is None)
    cacheable = (
        reproducible
        and obs != "profile"  # wall-clock sections are never deterministic
        and not monitor  # violations are live diagnostics, never archived
    )
    if store is not None and cacheable:
        key = store.key(
            spec,
            scenario,
            engine=engine,
            key_params=plan.key_params,
            stop_when_complete=stop,
            max_rounds=plan.max_rounds,
            obs=obs,
        )
        hit = store.get(key)
        if hit is not None:
            if stream is not None:
                timeline = hit.result.timeline
                if timeline is not None:
                    stream.replay(timeline)
                stream.end_run(hit.result)
            return hit

    monitors = None
    if monitor:
        from ..obs import default_monitors

        monitors = default_monitors(spec=spec, plan=plan, scenario=scenario)
    record = _execute(
        plan.label or spec.display_name,
        scenario,
        plan.factory,
        plan.max_rounds,
        stop_when_complete=stop,
        engine=engine,
        obs=obs,
        monitors=monitors,
        stream=stream,
    )
    phase_length = plan.phase_length
    if phase_length is None:
        T = scenario.params.get("T")
        phase_length = int(T) if isinstance(T, (int, float)) and T else None
    causal = record.result.causal_trace
    if causal is not None and causal.phase_length is None:
        # stamp the phase structure so provenance queries are phase-aware
        causal.phase_length = phase_length
    recording = record.result.recording
    if recording is not None and not recording.meta:
        # presentation metadata only — excluded from recording equality,
        # so the fast⇄reference bit-identity guarantee is unaffected
        recording.meta.update({
            "algorithm": spec.name,
            "scenario": scenario.name,
            "engine": engine,
            "phase_length": phase_length,
        })
    if key is not None:
        store.put(key, record)
    return record


def _execute(
    name: str,
    scenario: Scenario,
    factory,
    max_rounds: int,
    stop_when_complete: bool = False,
    engine: str = "fast",
    obs: str = "timeline",
    monitors=None,
    stream=None,
) -> RunRecord:
    link = None
    link_spec = getattr(scenario, "link", None)
    if link_spec is not None:
        link = link_from_spec(link_spec)
    sync = SynchronousEngine(
        engine=engine,
        obs=obs,
        link=link,
        stream=stream,
    )
    result = sync.run(
        scenario.trace,
        factory,
        k=scenario.k,
        initial=scenario.initial,
        max_rounds=max_rounds,
        stop_when_complete=stop_when_complete,
        monitors=monitors,
    )
    return RunRecord(
        algorithm=name,
        scenario=scenario.name,
        n=scenario.n,
        k=scenario.k,
        bound_rounds=max_rounds,
        rounds=result.metrics.rounds,
        completion_round=result.metrics.completion_round,
        tokens_sent=result.metrics.tokens_sent,
        messages_sent=result.metrics.messages_sent,
        complete=result.complete,
        result=result,
    )

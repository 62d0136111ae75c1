"""The synchronous round-based execution engine.

This implements the standard synchronous message-passing model used by
Kuhn–Lynch–Oshman and adopted by the paper: time is a sequence of rounds;
in each round every node first transmits, then receives everything sent to
it by current neighbours, then updates state.  The topology of round ``r``
is fixed by the scenario *before* transmissions — the adversary commits to
:math:`G_r` at the start of the round (an *adaptive* adversary may first
inspect node state through the ``adaptive_snapshot`` hook).

Delivery semantics
------------------
* A **broadcast** is received by every neighbour of the sender in
  :math:`G_r`.  It is one transmission and costs ``len(tokens)`` regardless
  of audience size (wireless broadcast accounting, as in the paper's
  Section V).
* A **unicast** is received by its destination iff the destination is a
  neighbour this round; otherwise it is dropped (the send is still paid
  for).  Members unicast to their head, which by the CTVG invariants is a
  neighbour, so drops only occur in deliberately mis-specified scenarios.
* With ``latency`` ζ > 1 (the TVG latency function), a frame transmitted
  in round r lands at the end of round r + ζ − 1; the audience is fixed at
  transmission time.
* All delivery *mutation* — probabilistic loss, crash-stop churn,
  pinpoint state faults — lives behind the pluggable
  :class:`~repro.sim.linkmodel.LinkModel` seam (``link=``): candidate
  deliveries are formed from the snapshot, the link model masks them,
  and the absorb stage only sees survivors (the send is still billed
  for suppressed deliveries).  Every round decomposes as
  topology-view → send-intents → link transform → absorb → role-update,
  identically on both engine tiers.

Execution comes in two forms: :meth:`SynchronousEngine.run` executes a
whole budget, and :meth:`SynchronousEngine.start` returns an
:class:`ActiveRun` that can be stepped round by round with full state
inspection in between (notebooks, debuggers, custom stopping rules).

The engine is deliberately simple and allocation-light: scenarios with a
few hundred nodes and thousands of rounds run in well under a second,
which keeps the benchmark sweeps laptop-scale (profile before optimizing
further — the hot path is the per-node ``send``/``receive`` calls, not the
engine bookkeeping).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Protocol, Tuple,
)

import numpy as np

from ..obs import validate_obs
from ..obs.monitors import Monitor, Violation
from ..obs.observer import RunObserver, pack_rows
from .linkmodel import ALL_TIERS, LinkModel, effective_link
from .messages import Delivery, Message
from .metrics import Metrics
from .node import AlgorithmFactory, NodeAlgorithm, RoundContext
from .topology import Snapshot

if TYPE_CHECKING:  # annotations only
    from ..obs import CausalTrace, RunRecording, RunTimeline, TelemetryBus

__all__ = ["ActiveRun", "DynamicNetwork", "RunResult", "SynchronousEngine", "run"]


def validate_run_args(
    n: int, k: int, initial: Mapping[int, FrozenSet[int]], max_rounds: int
) -> None:
    """Shared input validation for the reference and fast execution paths."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    if initial and (min(initial) < 0 or max(initial) >= n):
        node = next(v for v in initial if not 0 <= v < n)
        raise ValueError(
            f"initial assignment names node {node} outside 0..{n-1}"
        )
    assigned = set().union(*initial.values())
    if assigned - set(range(k)):
        raise ValueError(f"initial assignment contains ids outside 0..{k-1}")


class DynamicNetwork(Protocol):
    """What the engine requires of a scenario: a size and per-round snapshots."""

    @property
    def n(self) -> int:
        """Number of nodes (ids ``0 .. n-1``)."""
        ...

    def snapshot(self, r: int) -> Snapshot:
        """Topology (and optional hierarchy) of round ``r``."""
        ...


@dataclass
class RunResult:
    """Outcome of one engine run.

    Attributes
    ----------
    metrics:
        Cost accounting (rounds, tokens sent, per-role breakdown …).
    outputs:
        Final token set of every node.
    complete:
        Whether every node ended holding all ``k`` tokens.
    timeline:
        Cheap per-round progress counters (:class:`~repro.obs.RunTimeline`),
        recorded by default; ``None`` when the engine ran with
        ``obs="off"``.
    causal_trace:
        First-learn provenance events (:class:`~repro.obs.CausalTrace`),
        recorded at ``obs="trace"`` — identically by both engines.
    recording:
        Deterministic record/replay data
        (:class:`~repro.obs.RunRecording`), recorded at ``obs="record"``
        — bit-identically by both engines.  Reconstructs full state at
        any round and diffs against other recordings.
    violations:
        Structured invariant diagnostics collected by the run's monitors
        (``None`` when no monitors were attached; an empty list means
        every monitored invariant held).
    algorithms:
        The per-node algorithm objects in their final state (for
        protocols whose result is not a token set, e.g. push-sum
        estimates or RLNC ranks).
    """

    n: int
    k: int
    metrics: Metrics
    outputs: Dict[int, FrozenSet[int]]
    complete: bool
    timeline: Optional[RunTimeline] = None
    causal_trace: Optional[CausalTrace] = None
    recording: Optional[RunRecording] = None
    violations: Optional[List[Violation]] = None
    algorithms: Optional[Dict[int, NodeAlgorithm]] = field(default=None, repr=False)

    def missing(self) -> Dict[int, FrozenSet[int]]:
        """Per-node sets of tokens still missing (empty dict iff complete)."""
        universe = frozenset(range(self.k))
        out = {}
        for v, toks in self.outputs.items():
            gap = universe - toks
            if gap:
                out[v] = gap
        return out


class ActiveRun:
    """An in-progress execution that can be stepped one round at a time.

    Obtained from :meth:`SynchronousEngine.start`.  Between steps, the
    per-node algorithm objects (:attr:`algorithms`), accumulated
    :attr:`metrics` (send counters settled from the observer's send-count
    table on each read), and the obs consumers of :attr:`observer` are
    all inspectable — useful in notebooks and for custom stopping
    conditions:

    >>> active = SynchronousEngine().start(net, factory, k, initial, 100)
    >>> while active.step():
    ...     if some_condition(active.algorithms):
    ...         break
    >>> result = active.finish()
    """

    def __init__(
        self,
        engine: "SynchronousEngine",
        network: DynamicNetwork,
        factory: AlgorithmFactory,
        k: int,
        initial: Mapping[int, FrozenSet[int]],
        max_rounds: int,
        stop_when_complete: bool,
        stop_when_finished: bool,
        monitors: Optional[List[Monitor]] = None,
    ) -> None:
        n = network.n
        validate_run_args(n, k, initial, max_rounds)

        self.engine = engine
        self.network = network
        self.n = n
        self.k = k
        self.max_rounds = max_rounds
        self.stop_when_complete = stop_when_complete
        self.stop_when_finished = stop_when_finished

        started = time.perf_counter()
        self.algorithms: Dict[int, NodeAlgorithm] = {
            v: factory(v, k, frozenset(initial.get(v, frozenset())))
            for v in range(n)
        }
        self._metrics = Metrics()
        self.observer = RunObserver(
            engine.obs, n, k, [self.algorithms[v].TA for v in range(n)],
            monitors=monitors, stream=engine.stream,
        )
        if self.observer.profiler is not None:
            # set-up is bookkeeping, as on the vectorised tier
            self.observer.profiler.add(
                "bookkeeping", time.perf_counter() - started
            )
        self.round = 0
        self.stopped = False
        self._adaptive = getattr(network, "adaptive_snapshot", None)
        # messages in flight when latency > 1: due round -> [(receiver, msg)]
        self._in_flight: Dict[int, List[Tuple[int, Message]]] = {}
        self._link = engine.link_for("reference")
        self._alive = None
        if self._link is not None:
            self._alive = np.ones(n, dtype=bool)

    @property
    def metrics(self) -> Metrics:
        """The run's :class:`Metrics` so far, its send counters settled
        from the rounds billed to the observer's send-count table."""
        self.observer.table.settle(self._metrics)
        return self._metrics

    # -- internals ---------------------------------------------------------

    def _link_delivers(self, r: int, sender: int, receiver: int) -> bool:
        """Link transform for one candidate delivery (loss is billed)."""
        if self._link.delivers(r, sender, receiver):
            return True
        self._metrics.record_loss()
        return False

    def _flat(self, messages: List[Tuple[int, Message]]):
        """``(node, sender, packed tokens, cost)`` arrays of ``(node,
        message)`` pairs — a receiver (or a unicast's ``dest``, ``-1`` for
        a broadcast) in the observer's flat encoding."""
        return (
            np.array([v for v, _ in messages], dtype=np.int64),
            np.array([m.sender for _, m in messages], dtype=np.int64),
            pack_rows([m.tokens for _, m in messages], self.k),
            np.array([m.cost for _, m in messages], dtype=np.int64),
        )

    # -- stepping ------------------------------------------------------------

    def step(self) -> bool:
        """Execute one round; return ``False`` once the run has stopped."""
        if self.stopped or self.round >= self.max_rounds:
            self.stopped = True
            return False

        r = self.round
        n = self.n
        observer = self.observer
        prof = observer.profiler
        t0 = time.perf_counter() if prof is not None else 0.0
        if self._adaptive is not None:
            # adaptive adversary: commits to G_r after inspecting state
            snap = self._adaptive(
                r, {v: frozenset(self.algorithms[v].TA) for v in range(n)}
            )
        else:
            snap = self.network.snapshot(r)
        if snap.n != n:
            raise ValueError(
                f"snapshot for round {r} has {snap.n} nodes, expected {n}"
            )
        if prof is not None:
            # opening the round, the crash stage and the contexts are
            # booked to send, as on the vectorised tier
            now = time.perf_counter()
            prof.add("topology", now - t0)
            t0 = now
        observer.open_round(snap.arrays())

        # --- link transform, stage 1: crash-stop churn ---------------------
        link = self._link
        alive = self._alive
        newly_crashed: Tuple[int, ...] = ()
        crash_tokens = 0
        if link is not None:
            crashed = link.crashes(r, alive)
            if len(crashed):
                newly_crashed = tuple(int(x) for x in crashed)
                for cv in newly_crashed:
                    alive[cv] = False
                    ta = self.algorithms[cv].TA
                    crash_tokens += len(ta)
                    ta.clear()
                self._metrics.record_crashes(len(newly_crashed))

        contexts = [
            RoundContext(
                round_index=r,
                node=v,
                neighbors=snap.adj[v],
                role=snap.roles[v] if snap.roles is not None else None,
                head=snap.head_of[v] if snap.head_of is not None else None,
            )
            for v in range(n)
        ]

        # --- send phase ---------------------------------------------------
        due = r + self.engine.latency - 1
        senders: List[int] = []
        costs: List[int] = []
        unicasts = dropped = 0
        sent: Optional[List[Tuple[int, Message]]] = (
            [] if observer.wants_log else None
        )
        for v in range(n):
            if alive is not None and not alive[v]:
                continue
            for msg in self.algorithms[v].send(contexts[v]):
                if msg.sender != v:
                    raise ValueError(
                        f"node {v} emitted a message claiming sender {msg.sender}"
                    )
                if msg.cost == 0:
                    continue  # empty transmissions are skipped and free
                senders.append(v)
                costs.append(msg.cost)
                if msg.delivery is Delivery.BROADCAST:
                    if sent is not None:
                        sent.append((-1, msg))
                    if link is None:
                        for u in snap.adj[v]:
                            self._in_flight.setdefault(due, []).append((u, msg))
                    else:
                        # candidates are live receivers; the link masks those
                        for u in snap.adj[v]:
                            if alive[u] and self._link_delivers(r, v, u):
                                self._in_flight.setdefault(due, []).append((u, msg))
                else:
                    unicasts += 1
                    if sent is not None:
                        sent.append((msg.dest, msg))
                    if msg.dest not in snap.adj[v]:
                        dropped += 1
                    elif link is None:
                        self._in_flight.setdefault(due, []).append((msg.dest, msg))
                    elif alive[msg.dest] and self._link_delivers(r, v, msg.dest):
                        self._in_flight.setdefault(due, []).append((msg.dest, msg))
        observer.table.bill(
            np.array(senders, dtype=np.int64), np.array(costs, dtype=np.int64),
            unicasts, dropped,
        )
        if sent is not None:
            dests, log_senders, payload, log_costs = self._flat(sent)
            observer.log_sends((log_senders, dests, payload, log_costs))

        # --- delivery of everything due this round --------------------------
        if prof is not None:
            now = time.perf_counter()
            prof.add("send", now - t0)
            t0 = now
        inboxes: List[List[Message]] = [[] for _ in range(n)]
        for receiver, msg in self._in_flight.pop(r, ()):
            if alive is not None and not alive[receiver]:
                continue  # crashed between transmission and landing
            inboxes[receiver].append(msg)

        # --- receive phase ----------------------------------------------------
        if prof is not None:
            now = time.perf_counter()
            prof.add("deliver", now - t0)
            t0 = now
        for v in range(n):
            if alive is None or alive[v]:
                self.algorithms[v].receive(contexts[v], inboxes[v])

        # --- bookkeeping ----------------------------------------------------
        if prof is not None:
            now = time.perf_counter()
            prof.add("receive", now - t0)
            t0 = now
        if link is not None:
            for fv, ft in link.faults(r):
                if alive is None or alive[fv]:
                    self.algorithms[fv].TA.symmetric_difference_update((ft,))
        per_node = [len(self.algorithms[v].TA) for v in range(n)]
        coverage = sum(per_node)
        nodes_complete = per_node.count(self.k)
        self._metrics.end_round(coverage)
        state = deliveries = None
        if observer.wants_state:
            state = [self.algorithms[v].TA for v in range(n)]
        if observer.wants_deliveries:
            landed = [(v, msg) for v in range(n) for msg in inboxes[v]]
            if landed:
                deliveries = self._flat(landed)[:3]
        observer.close_round(
            r, coverage, nodes_complete, self._metrics,
            state=state,
            deliveries=deliveries,
            per_node=per_node,
            faults=None if link is None else (newly_crashed, crash_tokens),
            snap=snap,
        )
        self.round += 1

        # completion is measured over the surviving population: a crashed
        # node can never be re-supplied, so it does not gate the run
        alive_n = n if alive is None else int(alive.sum())
        if coverage == alive_n * self.k and (alive is None or alive_n > 0):
            self._metrics.mark_complete()
            if self.stop_when_complete:
                self.stopped = True
        if (
            not self.stopped
            and self.stop_when_finished
            and not self._in_flight
            and all(
                self.algorithms[v].finished(contexts[v])
                for v in range(n)
                if alive is None or alive[v]
            )
        ):
            self.stopped = True
        if self.round >= self.max_rounds:
            self.stopped = True
        if prof is not None:
            prof.add("bookkeeping", time.perf_counter() - t0)
        return not self.stopped

    def run_to_completion(self) -> None:
        """Step until the run stops (budget, completion, or local finish)."""
        while self.step():
            pass

    def finish(self) -> RunResult:
        """Package the current state as a :class:`RunResult`."""
        started = time.perf_counter()
        outputs = {
            v: frozenset(self.algorithms[v].TA) for v in range(self.n)
        }
        if self._alive is None:
            complete = all(len(t) == self.k for t in outputs.values())
        else:
            survivors = [v for v in range(self.n) if self._alive[v]]
            complete = bool(survivors) and all(
                len(outputs[v]) == self.k for v in survivors
            )
        if self.observer.profiler is not None:
            self.observer.profiler.add(
                "bookkeeping", time.perf_counter() - started
            )
        timeline, causal, recording, violations = self.observer.finish(
            self._metrics, complete
        )
        return RunResult(
            n=self.n,
            k=self.k,
            metrics=self._metrics,
            outputs=outputs,
            complete=complete,
            timeline=timeline,
            causal_trace=causal,
            recording=recording,
            violations=violations,
            algorithms=self.algorithms,
        )


class SynchronousEngine:
    """Reusable engine; see module docstring for the round semantics.

    Parameters
    ----------
    latency:
        The TVG latency ζ in rounds (Definition 1): a message transmitted
        in round r is received at the end of round ``r + latency − 1``.
        The audience is fixed at *transmission* time (the radio frame
        leaves over round r's edges); 1 (default) is the standard
        synchronous model used by the paper's analysis.
    engine:
        ``"reference"`` (default) executes per-node algorithm objects as
        documented above.  ``"fast"`` routes :meth:`run` through the
        vectorised round loop, :func:`repro.sim.fastpath.run_columnar`,
        when the factory carries a kernel tag; results are bit-identical
        (see docs/performance.md).  The loop picks its
        delivery from the run's inputs: CSR segment-OR by default, flat
        scatter under ``latency > 1`` or ``obs="trace"``.  Untagged
        factories and adaptive networks fall back to the reference path.
        :meth:`start` always steps the reference engine — the vectorised
        tier has no per-round inspection surface.
    obs:
        Telemetry level (see :mod:`repro.obs`): ``"timeline"`` (default)
        records cheap per-round progress counters into
        ``RunResult.timeline``, ``"trace"`` additionally records one
        causal first-learn event per (node, token) into
        ``RunResult.causal_trace``, ``"record"`` additionally records a
        replayable :class:`~repro.obs.RunRecording` (per-round knowledge
        deltas + roles + messages) into ``RunResult.recording``,
        ``"profile"`` times the round loop's sections, ``"off"`` records
        nothing.  Both execution paths feed the same counters, trace
        events and recordings — both feed one
        :class:`~repro.obs.RunObserver` — so timelines, causal traces
        *and* recordings join the fast-path equivalence guarantee.
    link:
        A :class:`~repro.sim.linkmodel.LinkModel` applied to every round's
        candidate deliveries (loss), node population (crash-stop churn)
        and post-absorb state (pinpoint faults).  Both engine tiers
        apply the same counter-based decisions, so faulty runs keep the
        registry-wide bit-identity guarantee.  ``None`` (default) is the
        identity channel; ``link=IidLoss(p, seed=s)`` suppresses each
        delivery independently with probability ``p`` (the send is still
        paid for).
    stream:
        A :class:`~repro.obs.stream.TelemetryBus` fed live while the run
        executes: one ``round`` event after every executed round (both
        tiers publish the same
        :meth:`~repro.obs.RunTimeline.round_event` dicts), an ``alert``
        per fresh monitor violation, and the closing ``summary`` when
        :meth:`run` returns.  Requires ``obs != "off"`` (round events
        are derived from the timeline).  Publishing never mutates run
        state, so results are bit-identical with streaming on or off.
    """

    def __init__(
        self,
        latency: int = 1,
        engine: str = "reference",
        obs: str = "timeline",
        link: Optional[LinkModel] = None,
        stream: Optional["TelemetryBus"] = None,
    ) -> None:
        if latency < 1:
            raise ValueError(f"latency must be >= 1 round, got {latency}")
        if engine == "columnar":  # legacy name; goes with ROADMAP "Benchmark fixes"
            engine = "fast"
        if engine not in ALL_TIERS:
            raise ValueError(
                f"engine must be 'reference' or 'fast', got {engine!r}"
            )
        if link is not None and not isinstance(link, LinkModel):
            raise TypeError(f"link must be a LinkModel, got {type(link).__name__}")
        self.link = link
        self.latency = latency
        self.engine_mode = engine
        self.obs = validate_obs(obs)
        if stream is not None and self.obs == "off":
            raise ValueError(
                "stream telemetry needs a timeline; use obs='timeline' "
                "or higher, not obs='off'"
            )
        self.stream = stream

    def link_for(self, tier: str) -> Optional[LinkModel]:
        """The link model ``tier`` should apply: :attr:`link` if it
        targets that tier, else ``None`` (the benign path)."""
        return effective_link(self.link, tier)

    def start(
        self,
        network: DynamicNetwork,
        factory: AlgorithmFactory,
        k: int,
        initial: Mapping[int, FrozenSet[int]],
        max_rounds: int,
        stop_when_complete: bool = False,
        stop_when_finished: bool = True,
        monitors: Optional[List[Monitor]] = None,
    ) -> ActiveRun:
        """Begin an execution and return it for round-by-round stepping."""
        return ActiveRun(
            self,
            network,
            factory,
            k,
            initial,
            max_rounds,
            stop_when_complete,
            stop_when_finished,
            monitors=monitors,
        )

    def run(
        self,
        network: DynamicNetwork,
        factory: AlgorithmFactory,
        k: int,
        initial: Mapping[int, FrozenSet[int]],
        max_rounds: int,
        stop_when_complete: bool = False,
        stop_when_finished: bool = True,
        monitors: Optional[List[Monitor]] = None,
    ) -> RunResult:
        """Execute up to ``max_rounds`` rounds and return the result.

        Parameters
        ----------
        network:
            Scenario supplying one :class:`Snapshot` per round.
        factory:
            Builds each node's :class:`NodeAlgorithm`;
            called as ``factory(node, k, initial_tokens)``.
        k:
            Total number of tokens in the instance.
        initial:
            Node id → initially-known tokens; absent nodes start empty.
        max_rounds:
            Hard bound on rounds executed (the algorithm's own analytic
            bound in reproduction runs).
        stop_when_complete:
            Stop as soon as global dissemination is observed (an omniscient
            check used for *measuring* completion time; the distributed
            algorithms themselves cannot detect it).
        stop_when_finished:
            Stop once every node reports local termination via
            :meth:`NodeAlgorithm.finished` (and nothing is in flight).
        monitors:
            Runtime invariant monitors (:mod:`repro.obs.monitors`) fed
            one :class:`~repro.obs.RoundView` per executed round; their
            violations land in :attr:`RunResult.violations`.  Both
            execution paths build identical views.
        """
        if self.engine_mode != "reference":
            from . import fastpath

            result = fastpath.try_run(
                self,
                network,
                factory,
                k,
                initial,
                max_rounds,
                stop_when_complete=stop_when_complete,
                stop_when_finished=stop_when_finished,
                monitors=monitors,
            )
            if result is not None:
                if self.stream is not None:
                    self.stream.end_run(result)
                return result
        active = self.start(
            network, factory, k, initial, max_rounds,
            stop_when_complete=stop_when_complete,
            stop_when_finished=stop_when_finished,
            monitors=monitors,
        )
        active.run_to_completion()
        result = active.finish()
        if self.stream is not None:
            self.stream.end_run(result)
        return result


def run(
    network: DynamicNetwork,
    factory: AlgorithmFactory,
    k: int,
    initial: Mapping[int, FrozenSet[int]],
    max_rounds: int,
    **kwargs,
) -> RunResult:
    """One-shot convenience wrapper around :class:`SynchronousEngine`.

    Keyword arguments ``latency`` / ``engine`` / ``obs`` / ``link`` /
    ``stream`` configure the engine; everything else is forwarded to
    :meth:`SynchronousEngine.run`.
    """
    engine = SynchronousEngine(
        latency=kwargs.pop("latency", 1),
        engine=kwargs.pop("engine", "reference"),
        obs=kwargs.pop("obs", "timeline"),
        link=kwargs.pop("link", None),
        stream=kwargs.pop("stream", None),
    )
    return engine.run(network, factory, k, initial, max_rounds, **kwargs)

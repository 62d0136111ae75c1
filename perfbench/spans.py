"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of each layer *in place* (module
functions and class methods are replaced for the duration of the timed
phase, then restored) and records one span per call: layer, start, end
and the enclosing span.  Spans live in memory; :meth:`Tracer.summary`
folds them into per-layer self times (a span's duration minus the time
covered by its child spans), the counts recorded at the same boundaries,
and the wall time no span covers.

Nothing under ``src/`` knows about the tracer: spans sit at the layer
boundaries as seen from the benchmark, which is what a later change
moving spans into the program can be compared against.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Layers in report order; each becomes ``<layer>_s`` in the summary.
LAYERS = (
    "scenarios.build",
    "properties.check",
    "topology.arrays",
    "topology.materialize",
    "engine.fast.run",
    "engine.columnar.run",
    "cache.key",
    "cache.get",
    "cache.put",
)


class Tracer:
    """Records spans with parent links plus per-layer counters."""

    def __init__(self) -> None:
        # each span: [layer, start, end, parent index, child seconds]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- span recording ---------------------------------------------------

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def wrap(
        self,
        owner,
        attr: str,
        layer,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``layer`` is a layer name or a function of the call's arguments
        returning one.  ``before(args, kwargs)`` runs ahead of the span
        and its value reaches ``after(tracer, args, kwargs, result,
        before_value)``, which runs once the span has closed, so counting
        work is charged to the tracing overhead, never to a layer.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            idx = tracer._open(layer(args) if callable(layer) else layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, result, pre)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def replace(self, owner, attr: str, value) -> None:
        """Swap ``owner.attr`` for ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped or replaced attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Per-layer self seconds, counters, covered and residual wall."""
        out: Dict[str, float] = {f"{layer}_s": 0.0 for layer in LAYERS}
        covered = 0.0
        for layer, start, end, parent, child in self.spans:
            out[f"{layer}_s"] += (end - start) - child
            if parent < 0:
                covered += end - start
        out.update(self.counts)
        out["trace.covered_s"] = covered
        out["trace.residual_s"] = wall_s - covered
        return out


# ---------------------------------------------------------------------------
# the benchmark's layer boundaries
# ---------------------------------------------------------------------------

class _CountingHashlib:
    """Stands in for ``hashlib`` inside the cache module: counts the bytes
    every key hashes (the canonical scenario JSON plus the key payload)."""

    def __init__(self, real, counts) -> None:
        self._real = real
        self._counts = counts

    def sha256(self, data=b""):
        self._counts["cache.key_bytes"] += len(data)
        return self._real.sha256(data)


def _count_builder(tracer, args, kwargs, result, pre) -> None:
    counts = tracer.counts
    trace = result.trace
    counts["scenarios.calls"] += 1
    counts["scenarios.snapshots"] += trace.horizon
    for r in range(trace.horizon):
        counts["scenarios.edges"] += sum(map(len, trace.snapshot(r).adj)) // 2


def _count_check(tracer, args, kwargs, result, pre) -> None:
    tracer.counts["properties.calls"] += 1
    tracer.counts["properties.rounds_checked"] += args[0].horizon


def _arrays_memoized(args, kwargs) -> bool:
    # Snapshot.arrays memoizes into the snapshot's private memo dict; a
    # call that finds it filled converts nothing
    return "arrays" in args[0].__dict__.get("_memo_cache", {})


def _count_arrays(tracer, args, kwargs, result, memoized) -> None:
    if not memoized:
        tracer.counts["topology.arrays_built"] += 1


def _snapshot_memoized(args, kwargs) -> bool:
    # CSRNetwork.snapshot memoizes per distinct arrays object
    net, r = args[0], args[1]
    arrs = net.snapshot_arrays(r)
    hit = net._snap_memo.get(id(arrs))
    return hit is not None and hit[0] is arrs


def _count_materialize(tracer, args, kwargs, result, memoized) -> None:
    if not memoized:
        tracer.counts["topology.materialized"] += 1


def _engine_layer(args) -> str:
    return f"engine.{args[0].engine_mode}.run"


def _count_engine(tracer, args, kwargs, result, pre) -> None:
    counts = tracer.counts
    metrics = result.metrics
    counts["engine.runs"] += 1
    counts["engine.node_rounds"] += result.n * metrics.rounds
    counts["engine.tokens_sent"] += metrics.tokens_sent
    counts["engine.messages_sent"] += metrics.messages_sent
    counts["engine.tokens_lost"] += metrics.lost_deliveries


def _count_get(tracer, args, kwargs, result, pre) -> None:
    if result is None:
        tracer.counts["cache.misses"] += 1
        return
    tracer.counts["cache.hits"] += 1
    store, key = args[0], args[1]
    # entries live at root/<key[:2]>/<key>.json (see repro.experiments.cache)
    path = os.path.join(store.root, key[:2], f"{key}.json")
    tracer.counts["cache.bytes_read"] += os.path.getsize(path)


def _count_put(tracer, args, kwargs, result, pre) -> None:
    tracer.counts["cache.bytes_written"] += os.path.getsize(result)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark's workloads cross."""
    import hashlib

    from repro.experiments import cache, scenarios
    from repro.graphs import properties
    from repro.sim.engine import SynchronousEngine
    from repro.sim.topology import CSRNetwork, Snapshot

    for builder in ("hinet_interval_scenario", "hinet_one_scenario"):
        tracer.wrap(scenarios, builder, "scenarios.build", after=_count_builder)
    for checker in ("is_hinet", "is_T_interval_connected"):
        tracer.wrap(properties, checker, "properties.check", after=_count_check)
    tracer.wrap(Snapshot, "arrays", "topology.arrays",
                before=_arrays_memoized, after=_count_arrays)
    tracer.wrap(CSRNetwork, "snapshot", "topology.materialize",
                before=_snapshot_memoized, after=_count_materialize)
    tracer.wrap(SynchronousEngine, "run", _engine_layer, after=_count_engine)
    tracer.wrap(cache.ResultCache, "key", "cache.key")
    tracer.wrap(cache.ResultCache, "get", "cache.get", after=_count_get)
    tracer.wrap(cache.ResultCache, "put", "cache.put", after=_count_put)
    tracer.replace(cache, "hashlib", _CountingHashlib(hashlib, tracer.counts))
    return tracer

"""Process-parallel experiment execution.

Sweeps and replications are embarrassingly parallel — every cell is an
independent seeded simulation — so they scale linearly across cores with
process-level parallelism (the GIL rules out threads for this CPU-bound
work; per the HPC guides, measure first: a single Table-3 scenario runs
in ~50 ms, so parallelism only pays for grids of hundreds of cells or
slow per-cell experiments).

Everything submitted must be picklable: module-level functions and plain
argument tuples, not closures — the usual `concurrent.futures` contract.
Results are returned **in input order** regardless of completion order,
so parallel and serial runs are interchangeable.

Workers used to be opaque while running; two introspection seams fix
that:

* **Heartbeats** — :func:`parallel_map` accepts a ``heartbeat`` callback
  and forwards per-item ``task`` events (``start`` / ``done``, with pid
  and wall milliseconds) from the workers over a multiprocessing queue,
  written through :func:`emit_worker_event`.  The transport is
  non-blocking with drop counting — a slow parent never stalls a worker.
* **Stall detection** — ``parallel_map(timeout_s=…)`` (default from the
  :data:`TIMEOUT_ENV_VAR` environment, off when unset/0) turns a hung
  worker into a diagnosed :class:`RuntimeError` naming the stuck item
  and elapsed time instead of an indefinite hang.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

__all__ = [
    "TIMEOUT_ENV_VAR",
    "emit_worker_event",
    "parallel_map",
]

T = TypeVar("T")
R = TypeVar("R")

#: Default worker-stall timeout (seconds) for :func:`parallel_map`;
#: unset or ``0`` disables the watchdog (the historical behaviour).
TIMEOUT_ENV_VAR = "REPRO_PARALLEL_TIMEOUT_S"

# Per-worker-process telemetry channel, installed by the executor
# initializer: events flow parent-ward without any worker-side blocking.
_WORKER_QUEUE: Optional[Any] = None
_WORKER_DROPS = 0


def _worker_init(telemetry) -> None:
    """Executor initializer: install the telemetry queue in this worker."""
    global _WORKER_QUEUE, _WORKER_DROPS
    _WORKER_QUEUE = telemetry
    _WORKER_DROPS = 0


def emit_worker_event(event: Dict[str, Any]) -> None:
    """Send one telemetry event parent-ward from a worker process.

    No-op outside an instrumented pool.  Stamps the worker ``pid`` and
    its cumulative ``drops`` (events shed because the queue was full —
    backpressure never blocks the worker's kernel).
    """
    global _WORKER_DROPS
    q = _WORKER_QUEUE
    if q is None:
        return
    event = dict(event)
    event.setdefault("pid", os.getpid())
    if _WORKER_DROPS:
        event["drops"] = _WORKER_DROPS
    try:
        q.put_nowait(event)
    except Exception:
        _WORKER_DROPS += 1


def _traced_call(
    fn: Callable[[T], R], index: int, item: T
) -> Tuple[R, float, int]:
    """Run one item inside a worker: announce its ``start`` over the
    telemetry queue, and return the result with its elapsed ms and the
    worker pid, from which the parent emits ``done`` when it collects
    the future (a ``done`` sent over the queue could still sit in the
    feeder thread when the future resolves)."""
    emit_worker_event({"type": "task", "item": index, "status": "start"})
    t0 = time.perf_counter()
    out = fn(item)
    return out, round((time.perf_counter() - t0) * 1000.0, 3), os.getpid()


def _env_timeout() -> Optional[float]:
    raw = os.environ.get(TIMEOUT_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{TIMEOUT_ENV_VAR} must be a number of seconds, got {raw!r}"
        ) from exc
    return value if value > 0 else None


#: How long the parent waits for a finished item's ``start`` event to
#: come through the telemetry queue before emitting its ``done`` anyway.
_START_WAIT_S = 5.0


def _drain_into(
    telemetry,
    heartbeat,
    starts: Dict[int, float],
    started: Set[int],
    wait_for: Optional[int] = None,
) -> None:
    """Forward queued worker events to the heartbeat, tracking live items.

    Non-blocking, except that with ``wait_for`` it first blocks (up to
    :data:`_START_WAIT_S`) until that item's ``start`` has arrived: the
    worker queued it before computing the result, so it is in flight.
    """
    deadline = time.monotonic() + _START_WAIT_S
    while True:
        try:
            if wait_for is not None and wait_for not in started:
                event = telemetry.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            else:
                event = telemetry.get_nowait()
        except queue_mod.Empty:
            return
        except Exception:
            return
        if event.get("type") == "task" and event.get("status") == "start":
            idx = event.get("item")
            if idx not in started:  # a late start of a finished item is not live
                started.add(idx)
                starts[idx] = time.monotonic()
        if heartbeat is not None:
            heartbeat(event)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    processes: Optional[int] = None,
    *,
    timeout_s: Optional[float] = None,
    heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> List[R]:
    """Apply a picklable ``fn`` over ``items`` across worker processes.

    ``processes=None`` uses ``os.cpu_count()``; ``processes=1`` (or a
    single item) runs serially in-process — handy for debugging, since
    tracebacks then surface directly.

    ``heartbeat`` receives per-item ``task`` events as workers pick
    items up and finish them (``{"type": "task", "item": i, "status":
    "start" | "done", "pid": …, "ms": …}``); on the serial path the same
    events are delivered synchronously, so consumers need no special
    case.  ``timeout_s`` (default: the :data:`TIMEOUT_ENV_VAR`
    environment, off when unset) bounds how long any single item may run
    without finishing: a worker stuck past the limit gets its pool torn
    down and a diagnosed :class:`RuntimeError` raised, naming the stuck
    item, the elapsed time, and the knob to raise.
    """
    items = list(items)
    if processes is None:
        processes = os.cpu_count() or 1
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if timeout_s is None:
        timeout_s = _env_timeout()
    if timeout_s is not None and timeout_s <= 0:
        timeout_s = None
    if processes == 1 or len(items) <= 1:
        results = []
        for i, item in enumerate(items):
            if heartbeat is not None:
                heartbeat({
                    "type": "task", "item": i, "status": "start",
                    "pid": os.getpid(),
                })
            t0 = time.perf_counter()
            results.append(fn(item))
            if heartbeat is not None:
                heartbeat({
                    "type": "task", "item": i, "status": "done",
                    "pid": os.getpid(),
                    "ms": round((time.perf_counter() - t0) * 1000.0, 3),
                })
        return results
    workers = min(processes, len(items))
    if timeout_s is None and heartbeat is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return _instrumented_map(fn, items, workers, timeout_s, heartbeat)


def _instrumented_map(
    fn: Callable[[T], R],
    items: List[T],
    workers: int,
    timeout_s: Optional[float],
    heartbeat: Optional[Callable[[Dict[str, Any]], None]],
) -> List[R]:
    """The heartbeat/watchdog execution path of :func:`parallel_map`.

    Submits every item wrapped in :func:`_traced_call`, then polls:
    drain worker events → forward to the heartbeat → emit ``done`` for
    each collected future (after its ``start``) → check each *live*
    item's elapsed wall-clock against ``timeout_s``.  Item start times
    come from the workers' own ``start`` events, so queue wait does not
    count against the budget.
    """
    telemetry = mp.Queue()
    starts: Dict[int, float] = {}
    started: Set[int] = set()
    results: List[Any] = [None] * len(items)
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_init,
        initargs=(telemetry,),
    )
    try:
        futures = {
            pool.submit(_traced_call, fn, i, item): i
            for i, item in enumerate(items)
        }
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending, timeout=0.05, return_when=FIRST_COMPLETED
            )
            for future in done:
                idx = futures[future]
                # surfaces worker exceptions eagerly
                results[idx], ms, pid = future.result()
                _drain_into(telemetry, heartbeat, starts, started, wait_for=idx)
                started.add(idx)
                starts.pop(idx, None)
                if heartbeat is not None:
                    heartbeat({
                        "type": "task", "item": idx, "status": "done",
                        "pid": pid, "ms": ms,
                    })
            _drain_into(telemetry, heartbeat, starts, started)
            if timeout_s is None or not starts:
                continue
            now = time.monotonic()
            for idx, t0 in starts.items():
                elapsed = now - t0
                if elapsed <= timeout_s:
                    continue
                if heartbeat is not None:
                    heartbeat({
                        "type": "task", "item": idx, "status": "stall",
                        "elapsed_s": round(elapsed, 3),
                    })
                for future in pending:
                    future.cancel()
                # the stuck worker will never return — kill, don't wait
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.terminate()
                pool.shutdown(wait=False)
                raise RuntimeError(
                    f"parallel_map worker stalled: item {idx} "
                    f"({items[idx]!r}) has run {elapsed:.1f}s with no "
                    f"result (timeout {timeout_s:g}s). The worker was "
                    f"terminated; raise the limit via timeout_s= or the "
                    f"{TIMEOUT_ENV_VAR} environment variable, or 0 to "
                    f"disable."
                )
        return results
    finally:
        pool.shutdown(wait=False)

"""Content-addressed on-disk result cache for algorithm runs.

Every :func:`repro.experiments.runner.execute` call can be keyed by what
*fully determines* its outcome:

* the algorithm spec's name **and version** (bumped on any semantic
  change, so stale entries can never be replayed);
* the **scenario content** — a SHA-256 over the trace's per-round CSR
  array bytes plus a small canonical-JSON header (the initial token
  assignment, the scalar model parameters, family, link model and trace
  shape), so any change to a builder's seed or parameters changes the
  key without the cache having to know how the scenario was built (see
  :func:`scenario_fingerprint`);
* the execution ``engine`` (``"columnar"`` is keyed as ``"fast"``: the
  two names run the one vectorised round loop, so each hits the other's
  entries);
* the resolved algorithm overrides (``RunPlan.key_params`` — budgets,
  flags, algorithm seeds) and the stop rule.

Entries are stored one JSON file per key under ``root/<k[:2]>/<k>.json``
(content-addressed, so concurrent writers from a process-pool sweep can
only ever write identical bytes; writes go through a temp file +
``os.replace`` and are atomic).  A warm cache lets sweeps, grids and
replications skip already-computed cells entirely — an interrupted sweep
resumes from where it stopped — and a cached replay is bit-identical to
the fresh run (asserted in ``tests/test_registry_cache.py``).

Cache location: pass an explicit directory (``cache="…"``), or set the
``REPRO_RESULT_CACHE`` environment variable to give every uncached
``execute`` call a default. Invalidation is by construction (key
changes); to reclaim disk space simply delete the directory.

Per-obs-level cache policy
--------------------------
The observability level changes what a stored record *contains*, so it is
part of the key — and one level is inherently non-deterministic:

=============  =========  ====================================================
obs level      cacheable  rationale
=============  =========  ====================================================
``off``        yes        record carries no telemetry; keyed as ``obs=off``
``timeline``   yes        counters are deterministic; keyed as ``obs=timeline``
``trace``      yes        causal first-learn events are deterministic and
                          engine-identical; keyed as ``obs=trace``
``record``     yes        per-round deltas/messages are deterministic and
                          engine-identical; keyed as ``obs=record``
``profile``    no         wall-clock sections differ run to run — a cached
                          replay would freeze meaningless timings
=============  =========  ====================================================

Orthogonally, :func:`repro.experiments.runner.execute` bypasses the cache
for ``monitor=True`` runs (violations are live diagnostics, not archived
artifacts) and for unseeded runs of seeded algorithms (not
reproducible).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..io import _scalar_params, run_record_from_dict, run_record_to_dict

__all__ = ["ResultCache", "resolve_cache", "scenario_fingerprint"]

_FORMAT = "repro-result-cache"
_VERSION = 2

#: Environment variable naming a default cache directory.
ENV_VAR = "REPRO_RESULT_CACHE"

CacheLike = Union[None, bool, str, Path, "ResultCache"]


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _round_digest(snap) -> bytes:
    """SHA-256 over one snapshot's :class:`~repro.sim.topology.SnapshotArrays`.

    The CSR ``indptr`` and ``indices`` are hashed as little-endian int64,
    then each hierarchy array the snapshot carries behind its own tag:
    ``roles`` as int8 :data:`~repro.sim.topology.ROLE_CODES` and
    ``head_of`` as int64 with ``-1`` for "unaffiliated".  A flat
    snapshot has neither tag.  ``head_adjacent`` is derived from the
    rest and left out.  Snapshots are frozen, so the digest is memoized
    next to the arrays themselves.
    """
    memo = snap._memo()
    digest = memo.get("sha256")
    if digest is None:
        arrs = snap.arrays()
        parts = [
            arrs.indptr.astype("<i8", copy=False).tobytes(),
            arrs.indices.astype("<i8", copy=False).tobytes(),
        ]
        if arrs.roles is not None:
            parts += [b"roles", arrs.roles.astype("<i1", copy=False).tobytes()]
        if arrs.head_of is not None:
            parts += [b"head_of", arrs.head_of.astype("<i8", copy=False).tobytes()]
        digest = hashlib.sha256(b"".join(parts)).digest()
        memo["sha256"] = digest
    return digest


def scenario_fingerprint(scenario) -> str:
    """SHA-256 over the scenario's header and its per-round array digests.

    The header is canonical JSON of everything but the edges: name,
    ``k``, the initial assignment, the scalar params, family, link model,
    ``n``, the trace's ``extend`` policy and horizon.  Each round then
    contributes the digest of its CSR arrays (:func:`_round_digest`),
    memoized on the snapshot, so re-keying a scenario costs one small
    hash however large its trace.

    Content-addressed: two scenarios with the same trace, initial
    assignment and scalar params fingerprint identically no matter how
    they were constructed (edge order, networkx, a JSON round trip);
    any change to one of them changes the digest.
    """
    trace = scenario.trace
    header = _canonical(
        {
            "name": scenario.name,
            "k": scenario.k,
            "initial": {
                str(v): sorted(toks) for v, toks in scenario.initial.items()
            },
            "params": _scalar_params(scenario.params),
            "family": scenario.family,
            "link": scenario.link,
            "n": trace.n,
            "extend": trace.extend,
            "horizon": trace.horizon,
        }
    )
    rounds = b"".join(_round_digest(snap) for snap in trace)
    return hashlib.sha256(header.encode("utf-8") + rounds).hexdigest()


def _jsonable(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


class ResultCache:
    """On-disk run-record cache rooted at ``root`` (created lazily).

    Holds only the root path, so instances pickle cheaply into
    process-pool workers; every worker hitting the same root shares the
    same cache.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r})"

    # -- keying -----------------------------------------------------------

    def key(
        self,
        spec,
        scenario,
        *,
        engine: str,
        key_params: Dict[str, Any],
        stop_when_complete: bool,
        max_rounds: int,
        obs: str = "timeline",
    ) -> str:
        """Content hash over everything that determines the run's outcome.

        ``obs`` joins the key because it changes the *stored record's
        content* (an ``obs="off"`` record carries no timeline) — replaying
        one for a timeline-recording call would silently drop telemetry.
        Profiled runs never reach the cache (wall times are not
        deterministic), so ``"profile"`` never appears in a key.
        """
        payload = {
            "format": _FORMAT,
            "version": _VERSION,
            "spec": spec.name,
            "spec_version": spec.version,
            "scenario": scenario_fingerprint(scenario),
            "engine": "fast" if engine == "columnar" else engine,
            "params": {k: _jsonable(v) for k, v in sorted(key_params.items())},
            "stop_when_complete": bool(stop_when_complete),
            "max_rounds": int(max_rounds),
            "obs": obs,
        }
        return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()

    # -- storage ----------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str):
        """The cached :class:`RunRecord` for ``key``, or ``None`` on a miss.

        A corrupt or foreign entry is a miss, which the caller's
        recompute then overwrites: text that is not JSON (e.g. a file
        truncated by a crashed writer that predates the atomic-write
        path), JSON of the wrong shape, an entry whose ``format``,
        ``version`` or stored ``key`` is not this cache's and this key's
        (a renamed file, an entry from an older cache version), or one
        without a decodable ``record``.
        """
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        try:
            if (data["format"], data["version"], data["key"]) != (
                _FORMAT, _VERSION, key
            ):
                return None
            return run_record_from_dict(data["record"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, record) -> Path:
        """Persist ``record`` under ``key`` atomically; returns the path."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = _canonical(
            {
                "format": _FORMAT,
                "version": _VERSION,
                "key": key,
                "record": run_record_to_dict(record),
            }
        )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        """Number of cached entries (walks the directory)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


def resolve_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Normalise a cache argument: instance, path, ``None``, or ``False``.

    ``None`` falls back to the ``REPRO_RESULT_CACHE`` environment
    variable when set, so whole sweeps can be made resumable without
    threading a path through every call site.  ``False`` disables
    caching outright, *ignoring* the environment variable — for callers
    that must observe a live execution (e.g. divergence diffing, where a
    stale cached replay would mask the divergence under investigation).
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is False:
        return None
    if cache is None:
        env = os.environ.get(ENV_VAR, "").strip()
        return ResultCache(env) if env else None
    return ResultCache(cache)

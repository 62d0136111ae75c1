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

Entry layout (cache version 3)::

    {"format": "repro-result-cache", "version": 3, "key": "<k>",
     "record": {<run-record header>,
                "columns": [["outputs.nodes", 120], ...],
                "dtype": "<i4", "crc": <crc32>, "block": "<base64>"}}

The record is :func:`repro.io.run_record_to_dict`'s columnar layout: a
small canonical-JSON header (the scalars and the per-role totals) plus
one packed block holding every integer series of the record (the
outputs as per-node indices into their distinct token sets, stored once
each as CSR; the per-round metrics; every timeline, causal-trace and
recording column), as base64 of little-endian ``<i4`` (``<i8``
when a value needs it).  ``columns`` names each column and its length
in block order, or the earlier column it repeats, and ``crc`` is the
``zlib.crc32`` of the raw block, so a warm hit decodes with one base64
decode, one checksum and one array conversion instead of parsing every
number as JSON.  A block whose checksum, dtype or length disagrees with
its header is a miss (see :meth:`ResultCache.get`).

The scenario fingerprint is memoized on the scenario.  A
:class:`~repro.experiments.scenarios.Scenario` is a frozen dataclass
whose ``initial``, ``params`` and ``link`` are read-only copies, so
nothing the fingerprint covers can change once the scenario is built.
Each instance therefore keeps a private ``_memo`` dict, and
:func:`scenario_fingerprint` stores its digest there on the first call.
That helps when one Scenario instance is keyed more than once in one
process (several specs, engines or budgets run on one scenario, or the
same scenario objects re-queried): each later :meth:`ResultCache.key` re-encodes and
hashes only its small payload, not the scenario header and round
digests.  The memo is not a dataclass field: ``dataclasses.replace``
and a pickle round trip (process-pool workers) start with an empty one,
and it never leaves the process, so the stored digest is exactly the
one a fresh computation gives.  A scenario built or loaded afresh (a
new process, ``repro report``, a resumed sweep) pays one full
fingerprint.  :class:`ResultCache` itself stays stateless and pickles
as its root path.  Objects without a ``_memo`` are fingerprinted afresh
on every call.

Cache location: pass an explicit directory (``cache="…"``), or set the
``REPRO_RESULT_CACHE`` environment variable to give every uncached
``execute`` call a default. Invalidation is by construction: any change
to what a key covers, or to the entry layout, changes the key (the cache
version is part of it).  Entries written by older versions (version 2
stored the whole record as JSON numbers) are therefore never addressed
again; they are not read or migrated, and they stay on disk until the
directory is deleted — delete it to reclaim the space.  A ``trace`` or
``record`` entry with its events or rounds as header JSON is a miss.

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
_VERSION = 3

#: Environment variable naming a default cache directory.
ENV_VAR = "REPRO_RESULT_CACHE"

CacheLike = Union[None, bool, str, Path, "ResultCache"]


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def scenario_fingerprint(scenario) -> str:
    """SHA-256 over the scenario's header and its per-round array digests.

    The header is canonical JSON of everything but the edges: name,
    ``k``, the initial assignment, the scalar params, family, link model,
    ``n``, the trace's ``extend`` policy and horizon.  The rounds then
    contribute :meth:`GraphTrace.digest <repro.sim.topology.GraphTrace.digest>`,
    one digest per round of its CSR and hierarchy arrays, memoized on the
    trace.  The whole fingerprint is memoized on a frozen
    :class:`~repro.experiments.scenarios.Scenario` (its ``_memo``), so
    re-keying one costs a dict lookup; an object without that memo is
    fingerprinted afresh on every call.

    Content-addressed: two scenarios with the same trace, initial
    assignment and scalar params fingerprint identically no matter how
    they were constructed (edge order, networkx, a JSON round trip);
    any change to one of them changes the digest.
    """
    memo = getattr(scenario, "_memo", None)
    if memo is None:
        return _fingerprint(scenario)
    try:
        return memo["fingerprint"]
    except KeyError:
        digest = memo["fingerprint"] = _fingerprint(scenario)
        return digest


def _fingerprint(scenario) -> str:
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
    return hashlib.sha256(header.encode("utf-8") + trace.digest()).hexdigest()


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

    def _path(self, key: str) -> str:
        # a plain string join: on a warm hit, building Path objects costs
        # a measurable share of the lookup
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str):
        """The cached :class:`RunRecord` for ``key``, or ``None`` on a miss.

        A corrupt or foreign entry is a miss, which the caller's
        recompute then overwrites: text that is not JSON (e.g. a file
        truncated by a crashed writer that predates the atomic-write
        path), JSON of the wrong shape, an entry whose ``format``,
        ``version`` or stored ``key`` is not this cache's and this key's
        (a renamed file, an entry from an older cache version), or one
        without a decodable ``record``: a column block that is not
        base64, fails its checksum, has an unknown dtype or disagrees
        with its column layout.
        """
        try:
            # unbuffered: the whole file is read in one call
            with open(self._path(key), "rb", buffering=0) as handle:
                data = json.loads(handle.read())
        except (OSError, ValueError):
            return None
        try:
            if (data["format"], data["version"], data["key"]) != (
                _FORMAT, _VERSION, key
            ):
                return None
            return run_record_from_dict(data["record"])
        except (AttributeError, LookupError, TypeError, ValueError):
            return None

    def put(self, key: str, record) -> Path:
        """Persist ``record`` under ``key`` atomically; returns the path."""
        path = self._path(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        blob = _canonical(
            {
                "format": _FORMAT,
                "version": _VERSION,
                "key": key,
                "record": run_record_to_dict(record),
            }
        )
        fd, tmp = tempfile.mkstemp(
            dir=parent, prefix=f".{key[:8]}-", suffix=".tmp"
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
        return Path(path)

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

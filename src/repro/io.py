"""Serialization: traces, scenarios and run results to/from JSON.

Reproducibility plumbing: a generated scenario can be persisted next to
the results produced on it, so experiments can be re-examined (or re-run
bit-for-bit) without regenerating from seeds.  The format is plain JSON —
no pickle, so artifacts are diffable, portable, and safe to load.

Format (version 1)::

    {
      "format": "repro-trace",
      "version": 1,
      "n": 20,
      "extend": "hold",
      "clustered": true,
      "rounds": [
         {"edges": [[0,1], ...], "roles": "hmmg...", "head_of": [0,0,...]},
         ...
      ]
    }

Roles are packed as a string of the paper's ``h``/``g``/``m`` letters;
``head_of`` uses ``null`` for unaffiliated nodes.  Flat traces omit both.

Run records (``repro-run-record`` version 2, the result cache's entry
payload) are columnar, so a cached record decodes without parsing
thousands of JSON numbers::

    {
      "format": "repro-run-record", "version": 2, "algorithm": ..., ...,
      "result": {"n": 20, "k": 3, "complete": true,
                 "metrics": {<totals and by_role>},
                 "timeline": {"profile": {}}, "causal_trace": {...}},
      "columns": [["outputs.nodes", 20], ["outputs.set", 20],
                  ["outputs.lengths", 1], ["outputs.tokens", 3],
                  ["metrics.per_round_tokens", 9], ...,
                  ["timeline.tokens", "metrics.per_round_tokens"], ...],
      "dtype": "<i4", "crc": <crc32>, "block": "<base64>"
    }

``block`` is base64 of every integer series concatenated in ``columns``
order, as little-endian ``<i4`` (``<i8`` when a value needs it), and
``crc`` is the ``zlib.crc32`` of the raw block.  A ``columns`` entry is
``[name, length]``, or ``[name, earlier]`` for a column equal to the
earlier column ``earlier``, which the block holds once.  The outputs
are each node's index (``outputs.set``) into the distinct token sets,
which are stored as CSR (per-set lengths, then the tokens), so equal
sets decode to one shared ``frozenset``.  ``timeline`` and its columns
are present only when the run kept one; a causal trace or recording
rides in ``result`` through its own codec.  Decoding checks the dtype,
the checksum and that the layout covers the block exactly, and raises
``ValueError`` otherwise.  Version 1 stored every series as JSON
numbers and is not read.
"""

from __future__ import annotations

import binascii
import json
import zlib
from itertools import accumulate, chain
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np

from .graphs.trace import GraphTrace
from .obs import (
    CausalTrace,
    RoundDelta,
    RunRecording,
    RunTimeline,
)
from .roles import Role
from .sim.engine import RunResult
from .sim.metrics import Metrics, RoleCost
from .sim.topology import Snapshot

__all__ = [
    "SCHEMA_VERSION",
    "causal_trace_from_dict",
    "causal_trace_to_dict",
    "load_ratio_table",
    "load_recording",
    "load_scenario",
    "load_trace",
    "metrics_from_dict",
    "metrics_to_dict",
    "ratio_table_from_dict",
    "ratio_table_to_dict",
    "recording_from_dict",
    "recording_to_dict",
    "run_record_from_dict",
    "run_record_to_dict",
    "save_ratio_table",
    "save_recording",
    "save_scenario",
    "save_trace",
    "scenario_from_dict",
    "scenario_to_dict",
    "trace_from_dict",
    "trace_to_dict",
]

_FORMAT = "repro-trace"
_VERSION = 1

#: Schema version stamped into every document this module writes.  Bump on
#: any layout change; decoders reject versions they do not understand with
#: a clear error instead of silently misparsing.  Documents written before
#: versioning carry no ``schema_version`` and decode as version 1 (their
#: layout is unchanged).
SCHEMA_VERSION = 1


def _require_format(data: Dict[str, Any], fmt: str,
                    version: int = _VERSION) -> None:
    """Shared decode-time validation: format, version and schema_version."""
    if not isinstance(data, dict) or data.get("format") != fmt:
        got = data.get("format") if isinstance(data, dict) else type(data).__name__
        raise ValueError(f"not a {fmt} document: format={got!r}")
    if data.get("version") != version:
        raise ValueError(
            f"unsupported {fmt} version {data.get('version')!r} "
            f"(supported: {version})"
        )
    schema = data.get("schema_version", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{fmt} document has schema_version {schema!r}; this reader "
            f"understands version {SCHEMA_VERSION} — re-export the artifact "
            "or upgrade repro"
        )


def trace_to_dict(trace: GraphTrace) -> Dict[str, Any]:
    """Encode a trace as a JSON-ready dict (see module docstring)."""
    clustered = trace.clustered
    rounds: List[Dict[str, Any]] = []
    for snap in trace:
        entry: Dict[str, Any] = {"edges": [list(e) for e in snap.edges()]}
        if clustered:
            entry["roles"] = "".join(r.value for r in snap.roles)  # type: ignore[union-attr]
            entry["head_of"] = list(snap.head_of)  # type: ignore[arg-type]
        rounds.append(entry)
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "schema_version": SCHEMA_VERSION,
        "n": trace.n,
        "extend": trace.extend,
        "clustered": clustered,
        "rounds": rounds,
    }


def trace_from_dict(data: Dict[str, Any]) -> GraphTrace:
    """Decode a trace; raises ``ValueError`` on wrong format or bad payload."""
    _require_format(data, _FORMAT)
    n = int(data["n"])
    clustered = bool(data.get("clustered", False))
    snaps: List[Snapshot] = []
    for i, entry in enumerate(data["rounds"]):
        edges = [tuple(e) for e in entry["edges"]]
        roles = head_of = None
        if clustered:
            role_str = entry["roles"]
            if len(role_str) != n:
                raise ValueError(f"round {i}: roles length {len(role_str)} != n={n}")
            roles = [Role(c) for c in role_str]
            head_of = [None if h is None else int(h) for h in entry["head_of"]]
            if len(head_of) != n:
                raise ValueError(f"round {i}: head_of length != n")
        snaps.append(Snapshot.from_edges(n, edges, roles=roles, head_of=head_of))
    return GraphTrace(snapshots=snaps, extend=data.get("extend", "hold"))


def save_trace(trace: GraphTrace, path: Union[str, Path]) -> Path:
    """Write a trace to ``path`` as JSON; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(trace_to_dict(trace), separators=(",", ":")))
    return p


def load_trace(path: Union[str, Path]) -> GraphTrace:
    """Read a trace previously written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text()))


def _scalar_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """``params`` filtered to JSON-safe scalars (provenance objects such as
    a generator handle are dropped)."""
    return {
        key: value
        for key, value in params.items()
        if isinstance(value, (int, float, str, bool)) or value is None
    }


def scenario_to_dict(scenario) -> Dict[str, Any]:
    """Encode an :class:`~repro.experiments.scenarios.Scenario` as JSON.

    Model parameters are filtered to JSON-safe scalars (provenance
    objects like the generator handle are dropped — the trace itself is
    the reproducible artifact).
    """
    out = {
        "format": "repro-scenario",
        "version": _VERSION,
        "schema_version": SCHEMA_VERSION,
        "name": scenario.name,
        "k": scenario.k,
        "initial": {str(v): sorted(toks) for v, toks in scenario.initial.items()},
        "params": _scalar_params(scenario.params),
        "trace": trace_to_dict(scenario.trace),
    }
    # family/link only when non-default: benign scenarios keep their
    # pre-seam on-disk encoding byte-for-byte
    family = getattr(scenario, "family", "benign")
    if family != "benign":
        out["family"] = family
    link = getattr(scenario, "link", None)
    if link is not None:
        out["link"] = dict(link)
    return out


def scenario_from_dict(data: Dict[str, Any]):
    """Decode a scenario written by :func:`scenario_to_dict`."""
    _require_format(data, "repro-scenario")
    from .experiments.scenarios import Scenario

    link = data.get("link")
    return Scenario(
        name=data["name"],
        trace=trace_from_dict(data["trace"]),
        k=int(data["k"]),
        initial={
            int(v): frozenset(int(t) for t in toks)
            for v, toks in data["initial"].items()
        },
        params=dict(data["params"]),
        family=data.get("family", "benign"),
        link=None if link is None else dict(link),
    )


def save_scenario(scenario, path: Union[str, Path]) -> Path:
    """Write a scenario to ``path`` as JSON; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(scenario_to_dict(scenario), separators=(",", ":")))
    return p


def load_scenario(path: Union[str, Path]):
    """Read a scenario previously written by :func:`save_scenario`."""
    return scenario_from_dict(json.loads(Path(path).read_text()))


def metrics_to_dict(metrics: Metrics) -> Dict[str, Any]:
    """Encode run metrics' totals and role breakdown.

    The per-round series are not included: a run record carries them in
    its column block (:func:`run_record_to_dict`).
    """
    out: Dict[str, Any] = dict(metrics.summary())
    out["by_role"] = {
        role: {"tokens": c.tokens, "messages": c.messages}
        for role, c in metrics.by_role.items()
    }
    return out


def metrics_from_dict(data: Dict[str, Any]) -> Metrics:
    """Reconstruct :class:`Metrics` from :func:`metrics_to_dict` output.

    The per-round series come back empty.
    """
    metrics = Metrics(
        rounds=int(data["rounds"]),
        completion_round=(
            None if data.get("completion_round") is None
            else int(data["completion_round"])
        ),
        tokens_sent=int(data["tokens_sent"]),
        messages_sent=int(data["messages_sent"]),
        broadcasts=int(data.get("broadcasts", 0)),
        unicasts=int(data.get("unicasts", 0)),
        dropped_unicasts=int(data.get("dropped_unicasts", 0)),
        lost_deliveries=int(data.get("lost_deliveries", 0)),
        crashed_nodes=int(data.get("crashed_nodes", 0)),
    )
    for role, counts in data.get("by_role", {}).items():
        metrics.by_role[role] = RoleCost(
            tokens=int(counts["tokens"]), messages=int(counts["messages"])
        )
    return metrics


def causal_trace_to_dict(causal: CausalTrace) -> Dict[str, Any]:
    """Encode a :class:`~repro.obs.CausalTrace` as a JSON-ready dict.

    Events are stored as sorted ``[node, token, round, sender, role]``
    rows — deterministic output, so two bit-identical traces serialize to
    byte-identical JSON (the property the result cache and the engine
    equivalence suites rely on).
    """
    return {
        "format": "repro-causal-trace",
        "version": _VERSION,
        "schema_version": SCHEMA_VERSION,
        "n": causal.n,
        "k": causal.k,
        "phase_length": causal.phase_length,
        "events": [
            [node, token, r, sender, role]
            for (node, token), (r, sender, role) in sorted(causal.events.items())
        ],
    }


def causal_trace_from_dict(data: Dict[str, Any]) -> CausalTrace:
    """Decode a causal trace written by :func:`causal_trace_to_dict`."""
    _require_format(data, "repro-causal-trace")
    return CausalTrace(
        n=None if data.get("n") is None else int(data["n"]),
        k=None if data.get("k") is None else int(data["k"]),
        phase_length=(
            None if data.get("phase_length") is None else int(data["phase_length"])
        ),
        events={
            (int(node), int(token)): (int(r), int(sender), str(role))
            for node, token, r, sender, role in data["events"]
        },
    )


def recording_to_dict(recording: RunRecording) -> Dict[str, Any]:
    """Encode a :class:`~repro.obs.RunRecording` as a JSON-ready dict.

    Deterministic output: the recording's contents are already in
    canonical order (the engines record through
    :class:`~repro.obs.RunRecorder`), so two bit-identical recordings
    serialize to byte-identical JSON.  ``meta`` is filtered to JSON-safe
    scalars.
    """
    return {
        "format": "repro-recording",
        "version": _VERSION,
        "schema_version": SCHEMA_VERSION,
        "n": recording.n,
        "k": recording.k,
        "initial": {str(v): list(toks) for v, toks in recording.initial.items()},
        # sorted: meta arrives in stamp order on a fresh run but in codec
        # order on a cache replay — sorting keeps serialization byte-stable
        "meta": {
            key: value
            for key, value in sorted(recording.meta.items())
            if isinstance(value, (int, float, str, bool)) or value is None
        },
        "rounds": [delta.to_dict() for delta in recording.rounds],
    }


def recording_from_dict(data: Dict[str, Any]) -> RunRecording:
    """Decode a recording written by :func:`recording_to_dict`."""
    _require_format(data, "repro-recording")
    return RunRecording(
        n=int(data["n"]),
        k=int(data["k"]),
        initial={
            int(v): tuple(int(t) for t in toks)
            for v, toks in data["initial"].items()
        },
        rounds=[RoundDelta.from_dict(entry) for entry in data["rounds"]],
        meta=dict(data.get("meta", {})),
    )


def save_recording(recording: RunRecording, path: Union[str, Path]) -> Path:
    """Write a recording to ``path`` as JSON; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(recording_to_dict(recording), separators=(",", ":")))
    return p


def load_recording(path: Union[str, Path]) -> RunRecording:
    """Read a recording previously written by :func:`save_recording`."""
    return recording_from_dict(json.loads(Path(path).read_text()))


#: Version of the ``repro-run-record`` layout: 2 is the columnar layout
#: (see the module docstring); version-1 records are not read.
_RECORD_VERSION = 2

#: Little-endian integer dtypes a column block may use, narrowest first.
_BLOCK_DTYPES = ("<i4", "<i8")
_I4_MIN, _I4_MAX = -(2**31), 2**31 - 1

#: Fixed timeline series, in block order; role-keyed columns follow as
#: ``timeline.<family>.<role>``.
_TIMELINE_SERIES = ("coverage", "nodes_complete", "tokens", "messages")
_ROLE_FAMILIES = ("role_messages", "role_tokens", "populations")


def _pack_columns(columns: List[Tuple[str, List[int]]]) -> Dict[str, Any]:
    """Pack named integer columns into one base64 block plus its layout.

    Each layout entry is ``[name, length]``, or ``[name, earlier]`` when
    the column equals the earlier column named ``earlier``, whose values
    the block then holds once (a timeline's ``tokens`` and the metrics'
    ``per_round_tokens``, for instance).  The block is ``<i4`` unless a
    value needs ``<i8``; ``crc`` is the ``zlib.crc32`` of its raw bytes.
    """
    layout: List[list] = []
    packed: List[List[int]] = []
    first: Dict[Tuple[int, ...], str] = {}
    for name, column in columns:
        earlier = first.setdefault(tuple(column), name)
        if earlier == name:
            layout.append([name, len(column)])
            packed.append(column)
        else:
            layout.append([name, earlier])
    values = np.fromiter(chain.from_iterable(packed), dtype=np.int64)
    narrow = not values.size or (
        _I4_MIN <= int(values.min()) and int(values.max()) <= _I4_MAX
    )
    dtype = _BLOCK_DTYPES[0] if narrow else _BLOCK_DTYPES[1]
    raw = values.astype(dtype).tobytes()
    return {
        "columns": layout,
        "dtype": dtype,
        "crc": zlib.crc32(raw),
        "block": binascii.b2a_base64(raw, newline=False).decode("ascii"),
    }


def _unpack_columns(data: Dict[str, Any]) -> Dict[str, List[int]]:
    """Inverse of :func:`_pack_columns`: column name to list of ints.

    Raises ``ValueError`` on an unknown dtype, a block whose checksum or
    length disagrees with the layout, or bad base64, and ``KeyError`` on
    a repeat of a column the layout has not named before it.
    """
    dtype = data["dtype"]
    if dtype not in _BLOCK_DTYPES:
        raise ValueError(f"unknown column dtype {dtype!r}")
    raw = binascii.a2b_base64(data["block"])
    if zlib.crc32(raw) != data["crc"]:
        raise ValueError("column block fails its checksum")
    values = np.frombuffer(raw, dtype=dtype).tolist()
    out: Dict[str, List[int]] = {}
    pos = 0
    for name, length in data["columns"]:
        if isinstance(length, str):
            out[name] = list(out[length])
            continue
        if length < 0:
            raise ValueError(f"column {name!r} has negative length {length}")
        out[name] = values[pos:pos + length]
        pos += length
    if pos != len(values):
        raise ValueError(
            f"column layout covers {pos} values, the block holds {len(values)}"
        )
    return out


def run_record_to_dict(record) -> Dict[str, Any]:
    """Encode a :class:`~repro.experiments.runner.RunRecord` as JSON.

    Columnar layout (see the module docstring): the scalars, the role
    breakdown, causal trace and recording form a JSON header, and every
    integer series goes into one packed column block.  Deterministic, so
    equal records encode to equal dicts.
    """
    result = record.result
    metrics = result.metrics
    outputs = result.outputs
    nodes = sorted(outputs)
    distinct: Dict[FrozenSet[int], int] = {}
    set_of = [distinct.setdefault(outputs[v], len(distinct)) for v in nodes]
    token_lists = [sorted(toks) for toks in distinct]
    columns: List[Tuple[str, List[int]]] = [
        ("outputs.nodes", nodes),
        ("outputs.set", set_of),
        ("outputs.lengths", [len(toks) for toks in token_lists]),
        ("outputs.tokens", list(chain.from_iterable(token_lists))),
        ("metrics.per_round_tokens", metrics.per_round_tokens),
        ("metrics.per_round_coverage", metrics.per_round_coverage),
    ]
    header: Dict[str, Any] = {
        "n": result.n,
        "k": result.k,
        "complete": bool(result.complete),
        "metrics": metrics_to_dict(metrics),
    }
    timeline = result.timeline
    if timeline is not None:
        header["timeline"] = {"profile": dict(timeline.profile)}
        for name in _TIMELINE_SERIES:
            columns.append((f"timeline.{name}", getattr(timeline, name)))
        for family in _ROLE_FAMILIES:
            series = getattr(timeline, family)
            for role in sorted(series):
                columns.append((f"timeline.{family}.{role}", series[role]))
    if result.causal_trace is not None:
        header["causal_trace"] = causal_trace_to_dict(result.causal_trace)
    if result.recording is not None:
        header["recording"] = recording_to_dict(result.recording)
    return {
        "format": "repro-run-record",
        "version": _RECORD_VERSION,
        "schema_version": SCHEMA_VERSION,
        "algorithm": record.algorithm,
        "scenario": record.scenario,
        "n": record.n,
        "k": record.k,
        "bound_rounds": record.bound_rounds,
        "rounds": record.rounds,
        "completion_round": record.completion_round,
        "tokens_sent": record.tokens_sent,
        "messages_sent": record.messages_sent,
        "complete": bool(record.complete),
        "result": header,
        **_pack_columns(columns),
    }


def _outputs_from_columns(
    columns: Dict[str, List[int]],
) -> Dict[int, FrozenSet[int]]:
    """Rebuild ``RunResult.outputs``: each node's index into the distinct
    token sets, which are stored once each as CSR (lengths, tokens), so
    equal token sets come back as one shared ``frozenset``."""
    nodes, set_of = columns["outputs.nodes"], columns["outputs.set"]
    lengths, tokens = columns["outputs.lengths"], columns["outputs.tokens"]
    bounds = list(accumulate(lengths, initial=0))
    if len(nodes) != len(set_of) or bounds[-1] != len(tokens):
        raise ValueError("outputs columns disagree in length")
    sets = [frozenset(tokens[a:b]) for a, b in zip(bounds, bounds[1:])]
    return dict(zip(nodes, map(sets.__getitem__, set_of)))


def run_record_from_dict(data: Dict[str, Any]):
    """Decode a record written by :func:`run_record_to_dict`.

    Raises ``ValueError`` on a wrong format or version, and on a column
    block that fails its checksum or disagrees with its layout.
    """
    _require_format(data, "repro-run-record", version=_RECORD_VERSION)
    from .experiments.runner import RunRecord

    columns = _unpack_columns(data)
    header = data["result"]
    metrics = metrics_from_dict(header["metrics"])
    metrics.per_round_tokens = columns["metrics.per_round_tokens"]
    metrics.per_round_coverage = columns["metrics.per_round_coverage"]
    timeline = None
    if "timeline" in header:
        families: Dict[str, Dict[str, List[int]]] = {
            family: {} for family in _ROLE_FAMILIES
        }
        for name, column in columns.items():
            parts = name.split(".", 2)
            if len(parts) == 3:
                families[parts[1]][parts[2]] = column
        timeline = RunTimeline(
            **{name: columns[f"timeline.{name}"] for name in _TIMELINE_SERIES},
            **families,
            profile={
                s: float(v) for s, v in header["timeline"]["profile"].items()
            },
        )
    causal = header.get("causal_trace")
    recording = header.get("recording")
    result = RunResult(
        n=int(header["n"]),
        k=int(header["k"]),
        metrics=metrics,
        outputs=_outputs_from_columns(columns),
        complete=bool(header["complete"]),
        timeline=timeline,
        causal_trace=None if causal is None else causal_trace_from_dict(causal),
        recording=None if recording is None else recording_from_dict(recording),
    )
    return RunRecord(
        algorithm=data["algorithm"],
        scenario=data["scenario"],
        n=int(data["n"]),
        k=int(data["k"]),
        bound_rounds=int(data["bound_rounds"]),
        rounds=int(data["rounds"]),
        completion_round=(
            None if data.get("completion_round") is None
            else int(data["completion_round"])
        ),
        tokens_sent=int(data["tokens_sent"]),
        messages_sent=int(data["messages_sent"]),
        complete=bool(data["complete"]),
        result=result,
    )


def ratio_table_to_dict(rows: List[Dict[str, Any]],
                        meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Encode a ``repro validate-model`` measured/predicted ratio table.

    ``rows`` are the sweep dicts :func:`repro.analysis.validate_model`
    returns (already JSON-scalar apart from nested role breakdowns, which
    are plain dicts); ``meta`` records the sweep parameters (n0, k, seed,
    engine) so an archived table is reproducible.
    """
    return {
        "format": "repro-envelope-ratios",
        "version": _VERSION,
        "schema_version": SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "rows": [dict(row) for row in rows],
    }


def ratio_table_from_dict(data: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Decode a ratio table written by :func:`ratio_table_to_dict`."""
    _require_format(data, "repro-envelope-ratios")
    rows = data.get("rows")
    if not isinstance(rows, list):
        raise ValueError("repro-envelope-ratios document has no rows list")
    return [dict(row) for row in rows]


def save_ratio_table(rows: List[Dict[str, Any]], path: Union[str, Path],
                     meta: Optional[Dict[str, Any]] = None) -> Path:
    """Write a validate-model ratio table to ``path`` as JSON."""
    p = Path(path)
    p.write_text(json.dumps(ratio_table_to_dict(rows, meta=meta), indent=1))
    return p


def load_ratio_table(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a ratio table previously written by :func:`save_ratio_table`."""
    return ratio_table_from_dict(json.loads(Path(path).read_text()))

"""Tests for the algorithm registry, run serialization and the result cache."""

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest

import repro.io

from repro.experiments.cache import ResultCache, resolve_cache, scenario_fingerprint
from repro.experiments.runner import RunRecord, execute
from repro.experiments.scenarios import (
    default_kind,
    dhop_scenario,
    hinet_interval_scenario,
    hinet_one_scenario,
    scenario_for,
)
from repro.experiments.sweeps import sweep_n
from repro.graphs.trace import GraphTrace
from repro.io import (
    load_scenario,
    metrics_from_dict,
    metrics_to_dict,
    run_record_from_dict,
    run_record_to_dict,
    save_scenario,
)
from repro.obs import RunTimeline
from repro.registry import all_specs, get_spec, spec_names
from repro.roles import Role
from repro.sim.engine import RunResult, SynchronousEngine
from repro.sim.linkmodel import PinpointFault
from repro.sim.metrics import Metrics, RoleCost
from repro.sim.rng import derive_seed
from repro.sim.topology import Snapshot

#: The ten single-hop algorithms the run_* helpers historically covered.
SINGLE_HOP = [
    "algorithm1", "algorithm1-stable", "algorithm2",
    "klo-interval", "klo-one",
    "flood-all", "flood-new", "kactive", "gossip", "netcoding",
]
MULTIHOP = ["dhop-dissemination", "dhop-algorithm1"]


class _CountingCache(ResultCache):
    """Counts :meth:`get` hits and misses, as the benchmark's tracer does."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.hits = self.misses = 0

    def get(self, key):
        record = super().get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record


@pytest.fixture(scope="module")
def interval_scenario():
    return hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2, seed=5)


@pytest.fixture(scope="module")
def one_scenario():
    return hinet_one_scenario(n0=24, theta=7, k=3, L=2, seed=5)


def _canonical(record) -> str:
    return json.dumps(run_record_to_dict(record), sort_keys=True)


class TestRegistry:
    def test_all_ten_single_hop_algorithms_registered(self):
        names = spec_names()
        for name in SINGLE_HOP:
            assert name in names, name

    def test_multihop_extensions_registered(self):
        names = spec_names()
        for name in MULTIHOP:
            assert name in names, name

    def test_get_spec_normalises_underscores(self):
        assert get_spec("klo_interval") is get_spec("klo-interval")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="algorithm1"):
            get_spec("nope")

    def test_specs_validate_against_their_scenarios(
        self, interval_scenario, one_scenario
    ):
        """Every registered spec accepts a real scenario of its model class."""
        scenarios = {
            "hinet-interval": interval_scenario,
            "hinet-one": one_scenario,
            "dhop": dhop_scenario(n0=20, num_heads=3, k=3, seed=5),
        }
        by_family = {"multihop": "dhop"}
        for spec in all_specs():
            if spec.family == "multihop":
                scenario = scenarios[by_family[spec.family]]
            elif "T" in spec.required_params or "alpha" in spec.required_params:
                scenario = scenarios["hinet-interval"]
            else:
                scenario = scenarios["hinet-one"]
            spec.validate_scenario(scenario)  # must not raise

    def test_validate_names_missing_params(self, one_scenario):
        # the (1, L) scenario has no alpha — Algorithm 1 must say so
        with pytest.raises(KeyError, match="alpha"):
            get_spec("algorithm1").validate_scenario(one_scenario)

    def test_execute_rejects_unknown_override(self, interval_scenario):
        with pytest.raises(TypeError, match="strict"):
            execute("klo-interval", interval_scenario, strict=True)

    def test_every_single_hop_spec_executes(
        self, interval_scenario, one_scenario
    ):
        """All ten algorithms run through the one execute() path."""
        for name in SINGLE_HOP:
            spec = get_spec(name)
            if "alpha" in spec.required_params:
                scenario = interval_scenario
            else:
                scenario = one_scenario
            overrides = {"seed": 7} if spec.seeded else {}
            record = execute(name, scenario, **overrides)
            assert record.n == scenario.n
            assert record.tokens_sent >= 0
            row = record.row()
            assert row["scenario"] == scenario.name
            assert row["messages_sent"] == record.messages_sent


class TestJsonRoundTrip:
    def test_run_record_round_trips(self, interval_scenario):
        record = execute("algorithm1", interval_scenario)
        data = json.loads(json.dumps(run_record_to_dict(record)))
        back = run_record_from_dict(data)
        assert run_record_to_dict(back) == run_record_to_dict(record)
        assert back.row() == record.row()
        assert back.result.outputs == record.result.outputs
        assert back.result.metrics.summary() == record.result.metrics.summary()

    def test_run_result_round_trips(self, one_scenario):
        record = execute("klo-one", one_scenario)
        result = record.result
        back = run_record_from_dict(
            json.loads(json.dumps(run_record_to_dict(record)))
        ).result
        assert back.outputs == result.outputs
        assert back.complete == result.complete
        assert back.metrics == result.metrics
        assert list(back.metrics.by_role) == list(result.metrics.by_role)

    def test_metrics_series_round_trip(self, one_scenario):
        record = execute("flood-all", one_scenario)
        metrics = record.result.metrics
        back = run_record_from_dict(
            json.loads(json.dumps(run_record_to_dict(record)))
        ).result.metrics
        assert back.per_round_tokens == metrics.per_round_tokens
        assert back.per_round_coverage == metrics.per_round_coverage
        assert dict(back.by_role) == dict(metrics.by_role)
        # the metrics header alone carries the totals, not the series
        header = metrics_from_dict(json.loads(json.dumps(metrics_to_dict(metrics))))
        assert header.summary() == metrics.summary()
        assert dict(header.by_role) == dict(metrics.by_role)
        assert header.per_round_tokens == header.per_round_coverage == []

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="repro-run-record"):
            run_record_from_dict({"format": "something-else"})

    @pytest.mark.parametrize("shape", ["incomplete", "obs-off", "wide"])
    def test_columnar_record_codec(self, shape):
        """A synthetic record round-trips through the column block: an
        incomplete run with unequal output sets, a run with every series
        empty (``obs="off"``), and one whose counter needs ``<i8``."""
        full = frozenset({0, 1, 2})
        outputs = {3: full, 0: frozenset({1}), 1: frozenset(), 2: full}
        metrics = Metrics(rounds=3, tokens_sent=9, messages_sent=5,
                          broadcasts=5, per_round_tokens=[4, 3, 2],
                          per_round_coverage=[5, 6, 7])
        metrics.by_role["head"] = RoleCost(tokens=9, messages=5)
        timeline = RunTimeline(
            coverage=[5, 6, 7], nodes_complete=[0, 1, 2], tokens=[4, 3, 2],
            messages=[2, 2, 1], role_messages={"head": [2, 2, 1]},
            role_tokens={"head": [4, 3, 2]},
            populations={"head": [1, 1, 1], "member": [3, 3, 3]},
        )
        if shape == "obs-off":
            outputs, timeline = {}, None
            metrics.per_round_tokens, metrics.per_round_coverage = [], []
        if shape == "wide":
            timeline.coverage[-1] = metrics.per_round_coverage[-1] = 2**31 + 7
        result = RunResult(n=4, k=3, metrics=metrics, outputs=outputs,
                           complete=False, timeline=timeline)
        record = RunRecord(algorithm="synthetic", scenario="hand-built", n=4,
                           k=3, bound_rounds=6, rounds=3, completion_round=None,
                           tokens_sent=9, messages_sent=5, complete=False,
                           result=result)
        encoded = run_record_to_dict(record)
        assert encoded["dtype"] == ("<i8" if shape == "wide" else "<i4")
        if timeline is not None:
            # role columns are written in name order, whatever the
            # order the engine first saw the roles in
            timeline.populations = dict(reversed(timeline.populations.items()))
            assert run_record_to_dict(record) == encoded
        back = run_record_from_dict(json.loads(json.dumps(encoded)))
        assert run_record_to_dict(back) == encoded
        assert back.row() == record.row()
        assert back.result.outputs == outputs
        assert back.result.metrics == metrics
        assert back.result.timeline == timeline
        if shape != "obs-off":
            # equal token sets decode to one shared frozenset
            assert back.result.outputs[2] is back.result.outputs[3]
            # an equal column is stored once and decodes to its own list
            assert ["timeline.tokens", "metrics.per_round_tokens"] in \
                encoded["columns"]
            assert back.result.timeline.tokens == metrics.per_round_tokens
            assert back.result.timeline.tokens is not \
                back.result.metrics.per_round_tokens


#: sha256 of the cache-entry bytes ``ResultCache.put`` writes for one
#: paper-sweep cell (n0=40, θ=12, k=6, α=3, L=2, seed 7): Algorithm 1 and
#: KLO-interval on its (T, L)-HiNet, Algorithm 2, KLO-one and flood-all on
#: its (1, L)-HiNet; Algorithm 1's ``record`` entry and Algorithm 2's
#: ``trace`` entry pin the recording and causal-trace columns.  Any
#: change to a run's metrics, timeline, their column order or the record
#: layout changes these bytes.
ENTRY_SHA256 = {
    ("algorithm1", "timeline"): "77c76f7219ed561d75aa6cf19c4c9c3b76202caf533701b2d8228b43ac2cc2c4",
    ("algorithm1", "off"): "61d959897158c885dcade5407e38a1a2ba89ec02d0210ce64887b9be06f3e9ff",
    ("klo-interval", "timeline"): "fdef5e403da2a6c62c26440900fa1921532b62e04fa912cfd79192b79f5939bc",
    ("klo-interval", "off"): "236d09c55b54b2d6e6336c9628d5cd4371e76412319d7e80d8d8e977a14a9d2f",
    ("algorithm2", "timeline"): "a5b24086a1f25fe1acfc53cb783a1392179eb7ff25bc2650dc345ca73d884d0d",
    ("algorithm2", "off"): "779c01e2e2cbb7e409f56cf9008f94e5cb5ce1affcc1ad7eb83c765f1db4975b",
    ("klo-one", "timeline"): "0482ba670a78046e538b38200f6fa42ba100581682cd9c8fed52e8d13d287ff5",
    ("klo-one", "off"): "bb274c2b36dc6f7d145ee3c3b190761a1986c19181a5a65c3ebb07a2b37749bc",
    ("flood-all", "timeline"): "e197dfa8007df1477a4df8d3112bb5ced6b622378534482f285870cb11d3bb5a",
    ("flood-all", "off"): "c3ae2fb1744bfef48b42ff5a81eae0465e57ff3e4409fe5abf6a5071a236e47f",
    ("algorithm1", "record"): "0c35134e647dcc3f32dc3a87dafa2e8a278503cb4ef5e364994b36f35794a887",
    ("algorithm2", "trace"): "a7dca5da873f7a5818ae0c76b12bc82d77e48c3007027a6930b030b056ce3b1a",
}


@pytest.fixture(scope="module")
def paper_cell():
    n0 = 40
    return {
        "interval": hinet_interval_scenario(
            n0=n0, theta=12, k=6, alpha=3, L=2,
            seed=derive_seed(7, "interval", n0), verify=False,
        ),
        "one": hinet_one_scenario(
            n0=n0, theta=12, k=6, L=2, seed=derive_seed(7, "one", n0),
            verify=False,
        ),
    }


class TestCacheEntryPin:
    @pytest.mark.parametrize("name, obs", sorted(ENTRY_SHA256))
    def test_entry_bytes_pinned(self, tmp_path, paper_cell, name, obs):
        kind = "interval" if name in ("algorithm1", "klo-interval") else "one"
        execute(name, paper_cell[kind], cache=ResultCache(tmp_path), obs=obs)
        (entry,) = tmp_path.glob("*/*.json")
        digest = hashlib.sha256(entry.read_bytes()).hexdigest()
        assert digest == ENTRY_SHA256[name, obs]


class TestResultCache:
    def test_hit_is_bit_identical_to_recompute(self, tmp_path, interval_scenario):
        cache = ResultCache(tmp_path)
        fresh = execute("algorithm1", interval_scenario, cache=cache)
        assert len(cache) == 1
        replay = execute("algorithm1", interval_scenario, cache=cache)
        uncached = execute("algorithm1", interval_scenario)
        assert _canonical(replay) == _canonical(fresh) == _canonical(uncached)

    def test_hit_skips_engine(self, tmp_path, interval_scenario, monkeypatch):
        cache = ResultCache(tmp_path)
        execute("algorithm1", interval_scenario, cache=cache)
        monkeypatch.setattr(
            SynchronousEngine, "run",
            lambda *a, **k: pytest.fail("engine executed on a warm cache"),
        )
        replay = execute("algorithm1", interval_scenario, cache=cache)
        assert replay.complete

    def test_columnar_engine_name_rejected(self, tmp_path):
        """"fast" is the vectorised tier's one name.  A "columnar" query
        raises before the cache is keyed, so it can neither replay the
        "fast" entry (which a link model aimed at "fast" made differ from
        an unfaulted run) nor write an entry of its own."""
        scenario = replace(
            scenario_for("hinet-interval", n0=40, k=4, seed=1),
            link=PinpointFault(0, 0, 0, tiers=("fast",)).spec(),
        )
        cache = ResultCache(tmp_path)
        execute("flood-all", scenario, engine="fast", cache=cache)
        entries = sorted(tmp_path.rglob("*.json"))
        with pytest.raises(ValueError, match="'fast'"):
            execute("flood-all", scenario, engine="columnar", cache=cache)
        assert sorted(tmp_path.rglob("*.json")) == entries

    def test_key_changes_with_scenario_seed(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2, seed=1)
        b = hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2, seed=2)
        spec = get_spec("algorithm1")
        key = lambda s: cache.key(spec, s, engine="fast", key_params={},
                                  stop_when_complete=False, max_rounds=10)
        assert scenario_fingerprint(a) != scenario_fingerprint(b)
        assert key(a) != key(b)

    def test_key_changes_with_param_engine_and_version(
        self, tmp_path, interval_scenario
    ):
        from dataclasses import replace

        cache = ResultCache(tmp_path)
        spec = get_spec("algorithm1")

        def key(spec=spec, engine="fast", params=None, stop=False, rounds=10):
            return cache.key(spec, interval_scenario, engine=engine,
                             key_params=dict(params or {}),
                             stop_when_complete=stop, max_rounds=rounds)

        base = key()
        assert key(engine="reference") != base
        assert key(params={"strict": True}) != base
        assert key(stop=True) != base
        assert key(rounds=11) != base
        assert key(spec=replace(spec, version=2)) != base
        assert key() == base  # and stable

    def test_algorithm_seed_joins_key(self, tmp_path, one_scenario):
        cache = ResultCache(tmp_path)
        execute("gossip", one_scenario, cache=cache, seed=1)
        execute("gossip", one_scenario, cache=cache, seed=2)
        assert len(cache) == 2

    def test_unseeded_stochastic_runs_never_cached(self, tmp_path, one_scenario):
        cache = ResultCache(tmp_path)
        execute("gossip", one_scenario, cache=cache)  # seed=None
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path, interval_scenario):
        """Truncated text, valid JSON of the wrong shape, an entry with no
        record, another key's entry renamed onto this path, entries of
        older cache versions (including version 2's all-JSON record), and
        a column block that is damaged, cut short, shorter than its layout
        claims, or of an unknown dtype each count as one miss;
        the recompute rewrites the entry, which parses again, and the
        next call is a hit."""
        cache = _CountingCache(tmp_path / "cache")
        fresh = execute("algorithm1", interval_scenario, cache=cache)
        (path,) = cache.root.glob("*/*.json")
        stored = json.loads(path.read_text())
        no_record = json.dumps({k: v for k, v in stored.items() if k != "record"})
        # another key's (decodable) entry renamed onto this key's path
        other = ResultCache(tmp_path / "other")
        execute("klo-interval", interval_scenario, cache=other)
        (other_path,) = other.root.glob("*/*.json")
        renamed = other_path.read_text()
        v1_format = json.dumps({**stored, "version": 1})

        def with_record(**changes):
            return json.dumps({**stored, "record": {**stored["record"], **changes}})

        block = stored["record"]["block"]
        mid = len(block) // 2
        flipped = block[:mid] + ("B" if block[mid] == "A" else "A") + block[mid + 1:]
        # the last column stored in the block claims one value too many
        layout = [list(column) for column in stored["record"]["columns"]]
        last = max(i for i, (_, size) in enumerate(layout)
                   if isinstance(size, int))
        layout[last][1] += 1
        # "<u4" has "<i4"'s width, so only the dtype check rejects it
        unknown_dtype = with_record(dtype="<u4")
        # version 2 stored the whole result as JSON numbers
        v2_record = {
            "format": "repro-run-record", "version": 1, "schema_version": 1,
            **{name: stored["record"][name] for name in (
                "algorithm", "scenario", "n", "k", "bound_rounds", "rounds",
                "completion_round", "tokens_sent", "messages_sent", "complete",
            )},
            "result": {
                "format": "repro-result", "version": 1, "schema_version": 1,
                "n": fresh.result.n, "k": fresh.result.k,
                "complete": fresh.result.complete,
                "outputs": {str(v): sorted(toks)
                            for v, toks in fresh.result.outputs.items()},
                "metrics": metrics_to_dict(fresh.result.metrics),
            },
        }
        v2_layout = json.dumps({**stored, "version": 2, "record": v2_record})
        for corrupt in ("{ truncated", '{"record": 3}', no_record, renamed,
                        v1_format, with_record(block=flipped),
                        with_record(block=block[:mid // 4 * 4]),
                        with_record(columns=layout), unknown_dtype, v2_layout):
            path.write_text(corrupt)
            hits, misses = cache.hits, cache.misses
            record = execute("algorithm1", interval_scenario, cache=cache)
            assert (cache.hits, cache.misses) == (hits, misses + 1)
            assert record.complete  # recomputed and re-stored
            assert json.loads(path.read_text()) == stored
            replay = execute("algorithm1", interval_scenario, cache=cache)
            assert (cache.hits, cache.misses) == (hits + 1, misses + 1)
            assert _canonical(replay) == _canonical(record)

    @pytest.mark.parametrize("obs", ["trace", "record"])
    def test_parent_layout_trace_and_record_entries_are_misses(
        self, tmp_path, interval_scenario, obs
    ):
        """A trace or record entry in the layout before the column
        layout (the causal events or every recorded round as JSON in the
        header, and no such columns in the block) is a miss, and the
        recompute overwrites it with the column layout."""
        cache = _CountingCache(tmp_path)
        fresh = execute("algorithm1", interval_scenario, cache=cache, obs=obs)
        (path,) = cache.root.glob("*/*.json")
        stored = json.loads(path.read_text())
        record = stored["record"]
        columns = repro.io._unpack_columns(record)
        kept = [(name, columns[name]) for name, _ in record["columns"]
                if not name.startswith(("causal.", "recording."))]
        header = dict(record["result"])
        if obs == "trace":
            causal = fresh.result.causal_trace
            header["causal_trace"] = {
                "format": "repro-causal-trace", "version": 1,
                "schema_version": 1, "n": causal.n, "k": causal.k,
                "phase_length": causal.phase_length,
                "events": [[node, token, r, sender, role] for (node, token),
                           (r, sender, role) in sorted(causal.events.items())],
            }
        else:
            recording = fresh.result.recording
            header["recording"] = {
                "format": "repro-recording", "version": 1, "schema_version": 1,
                "n": recording.n, "k": recording.k,
                "initial": {str(v): list(toks)
                            for v, toks in recording.initial.items()},
                "meta": header["recording"]["meta"],
                "rounds": [
                    {
                        "gained": [[v, list(toks)] for v, toks in d.gained],
                        "lost": [[v, list(toks)] for v, toks in d.lost],
                        "messages": [[m.sender, m.kind, m.dest, list(m.tokens),
                                      m.cost] for m in d.messages],
                        "roles": d.roles, "head_of": list(d.head_of),
                    }
                    for d in recording.rounds
                ],
            }
        parent = {**record, "result": header, **repro.io._pack_columns(kept)}
        path.write_text(json.dumps({**stored, "record": parent}))
        again = execute("algorithm1", interval_scenario, cache=cache, obs=obs)
        assert (cache.hits, cache.misses) == (0, 2)
        assert json.loads(path.read_text()) == stored
        replay = execute("algorithm1", interval_scenario, cache=cache, obs=obs)
        assert (cache.hits, cache.misses) == (1, 2)
        assert _canonical(replay) == _canonical(again) == _canonical(fresh)

    @pytest.mark.parametrize("obs", ["off", "timeline", "trace", "record"])
    def test_every_spec_replays_identically(self, tmp_path, obs):
        """Every registered spec, on its default scenario kind, replays
        from the cache equal to its fresh run at each cacheable obs
        level."""
        cache = _CountingCache(tmp_path)
        scenarios = {}
        specs = all_specs()
        for spec in specs:
            kind = default_kind(spec)
            if kind not in scenarios:
                scenarios[kind] = scenario_for(kind, n0=24, theta=7, k=3,
                                               seed=2013)
            overrides = {"seed": 7} if spec.seeded else {}
            fresh = execute(spec.name, scenarios[kind], cache=cache, obs=obs,
                            **overrides)
            replay = execute(spec.name, scenarios[kind], cache=cache, obs=obs,
                             **overrides)
            assert _canonical(replay) == _canonical(fresh), spec.name
            assert replay.result.outputs == fresh.result.outputs, spec.name
            assert replay.result.metrics == fresh.result.metrics, spec.name
            assert replay.result.timeline == fresh.result.timeline, spec.name
            assert replay.result.causal_trace == fresh.result.causal_trace
            assert replay.result.recording == fresh.result.recording
        assert (cache.hits, cache.misses) == (len(specs), len(specs))

    def test_resolve_cache_env_var(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert resolve_cache(None) is None
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        store = resolve_cache(None)
        assert store is not None and store.root == tmp_path
        assert resolve_cache(str(tmp_path)).root == tmp_path

    def test_cache_accepts_plain_path_argument(self, tmp_path, interval_scenario):
        execute("algorithm1", interval_scenario, cache=str(tmp_path))
        assert len(ResultCache(tmp_path)) == 1


def _with_snapshots(scenario, snapshots):
    """``scenario`` with its trace replaced by ``snapshots``."""
    trace = GraphTrace(snapshots=list(snapshots), extend=scenario.trace.extend)
    return replace(scenario, trace=trace)


def _changed_round(snap, edges=None, roles=None, head_of=None):
    """A copy of ``snap`` with its edges, roles or head map replaced."""
    return Snapshot.from_edges(
        snap.n,
        snap.edges() if edges is None else edges,
        roles=snap.roles if roles is None else roles,
        head_of=snap.head_of if head_of is None else head_of,
    )


#: Rebuilds the ``interval_scenario`` fixture in a fresh interpreter.
_FINGERPRINT_SCRIPT = """
from repro.experiments.cache import scenario_fingerprint
from repro.experiments.scenarios import hinet_interval_scenario
print(scenario_fingerprint(
    hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2, seed=5)))
"""


class TestContentAddress:
    """The scenario fingerprint addresses content, not construction."""

    def test_same_trace_built_three_ways(self, tmp_path, interval_scenario):
        rng = random.Random(11)
        shuffled, via_nx = [], []
        for snap in interval_scenario.trace:
            edges = [(v, u) if rng.random() < 0.5 else (u, v)
                     for u, v in snap.edges()]
            rng.shuffle(edges)
            shuffled.append(Snapshot.from_edges(
                snap.n, edges, roles=snap.roles, head_of=snap.head_of))
            graph = nx.Graph()
            graph.add_nodes_from(reversed(range(snap.n)))
            graph.add_edges_from(reversed(edges))
            via_nx.append(Snapshot.from_networkx(
                graph, roles=snap.roles, head_of=snap.head_of))
        path = save_scenario(interval_scenario, tmp_path / "scenario.json")
        prints = {
            scenario_fingerprint(interval_scenario),
            scenario_fingerprint(_with_snapshots(interval_scenario, shuffled)),
            scenario_fingerprint(_with_snapshots(interval_scenario, via_nx)),
            scenario_fingerprint(load_scenario(path)),
        }
        assert len(prints) == 1

    def test_one_flip_changes_the_fingerprint(self, interval_scenario):
        base = interval_scenario
        snaps = list(base.trace)
        r = len(snaps) // 2
        snap = snaps[r]
        edges = snap.edges()
        u, v = next((u, v) for u in range(snap.n) for v in range(u + 1, snap.n)
                    if v not in snap.adj[u])
        member = next(w for w in range(snap.n) if snap.roles[w] is Role.MEMBER)
        other_head = next(h for h in sorted(snap.heads())
                          if h != snap.head_of[member])
        roles = list(snap.roles)
        roles[member] = Role.GATEWAY
        head_of = list(snap.head_of)
        head_of[member] = other_head

        def at_r(changed):
            return _with_snapshots(base, snaps[:r] + [changed] + snaps[r + 1:])

        moved = dict(base.initial)
        donor = next(w for w, toks in moved.items() if toks)
        token = min(moved[donor])
        receiver = next(w for w in range(base.n) if token not in moved.get(w, ()))
        moved[donor] = moved[donor] - {token}
        moved[receiver] = moved.get(receiver, frozenset()) | {token}

        variants = {
            "edge added": at_r(_changed_round(snap, edges=edges + [(u, v)])),
            "edge removed": at_r(_changed_round(snap, edges=edges[1:])),
            "role": at_r(_changed_round(snap, roles=roles)),
            "head_of": at_r(_changed_round(snap, head_of=head_of)),
            "extend": replace(base, trace=GraphTrace(snapshots=snaps,
                                                     extend="cycle")),
            "horizon": _with_snapshots(base, snaps + snaps[-1:]),
            "k": replace(base, k=base.k + 1),
            "initial": replace(base, initial=moved),
            "link": replace(base, link={"kind": "iid-loss", "p": 0.1, "seed": 1}),
            "family": replace(base, family="lossy"),
        }
        base_print = scenario_fingerprint(base)
        prints = {name: scenario_fingerprint(s) for name, s in variants.items()}
        for name, digest in prints.items():
            assert digest != base_print, name
        assert len(set(prints.values())) == len(prints)

    def test_stable_across_hash_seeds(self, interval_scenario):
        root = Path(__file__).resolve().parent.parent
        expected = scenario_fingerprint(interval_scenario)
        for hashseed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=str(root / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", _FINGERPRINT_SCRIPT], cwd=root, env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == expected

    def test_warm_hit_encodes_no_json(self, tmp_path, interval_scenario,
                                      monkeypatch):
        cache = _CountingCache(tmp_path)
        cold = execute("algorithm1", interval_scenario, cache=cache)
        for name in ("scenario_to_dict", "trace_to_dict"):
            monkeypatch.setattr(
                repro.io, name,
                lambda *a, _name=name, **k: pytest.fail(f"{_name} on a warm hit"),
            )
        replay = execute("algorithm1", interval_scenario, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert _canonical(replay) == _canonical(cold)


class TestWarmSweep:
    def test_warm_sweep_runs_zero_engine_executions(self, tmp_path, monkeypatch):
        """Acceptance criterion: a re-run sweep with a warm cache performs
        zero engine executions and produces identical rows."""
        kwargs = dict(ns=(20, 26), k=3, alpha=3, L=2, seed=17,
                      cache=ResultCache(tmp_path))
        cold = sweep_n(**kwargs)
        assert len(kwargs["cache"]) == 2 * len(cold)  # two algorithms per cell
        monkeypatch.setattr(
            SynchronousEngine, "run",
            lambda *a, **k: pytest.fail("engine executed on a warm cache"),
        )
        warm = sweep_n(**kwargs)
        assert warm == cold

    def test_interrupted_sweep_resumes(self, tmp_path, monkeypatch):
        """Cells computed before an interruption replay; only the missing
        tail executes."""
        cache = ResultCache(tmp_path)
        full = sweep_n(ns=(20, 26), k=3, alpha=3, L=2, seed=17, cache=cache)

        # drop one cell's entries to simulate the interruption
        paths = sorted(cache.root.glob("*/*.json"))
        kept = len(paths)
        for path in paths[:2]:
            path.unlink()
        assert len(cache) == kept - 2

        executions = []
        real_run = SynchronousEngine.run

        def counting_run(self, *a, **k):
            executions.append(1)
            return real_run(self, *a, **k)

        monkeypatch.setattr(SynchronousEngine, "run", counting_run)
        resumed = sweep_n(ns=(20, 26), k=3, alpha=3, L=2, seed=17, cache=cache)
        assert resumed == full
        assert len(executions) == 2  # exactly the dropped cells


class TestDhopScenario:
    def test_dhop_specs_execute_and_cache(self, tmp_path):
        scenario = dhop_scenario(n0=20, num_heads=3, k=3, seed=9)
        cache = ResultCache(tmp_path)
        for name in MULTIHOP:
            fresh = execute(name, scenario, cache=cache)
            assert fresh.complete
            replay = execute(name, scenario, cache=cache)
            assert _canonical(replay) == _canonical(fresh)
        assert len(cache) == 2


class TestWrapperParity:
    def test_wrappers_match_execute(self, interval_scenario, one_scenario):
        from repro.experiments.runner import run_algorithm1, run_gossip

        assert _canonical(run_algorithm1(interval_scenario)) == \
            _canonical(execute("algorithm1", interval_scenario))
        assert _canonical(run_gossip(one_scenario, seed=3)) == \
            _canonical(execute("gossip", one_scenario, seed=3))


def _unmemoized(scenario):
    """A plain stand-in with the scenario's content and no ``_memo``, so
    the cache fingerprints it afresh on every call."""
    from types import SimpleNamespace

    return SimpleNamespace(
        name=scenario.name, trace=scenario.trace, k=scenario.k,
        initial=scenario.initial, params=scenario.params,
        family=scenario.family, link=scenario.link,
    )


def _keys_of_every_spec(cache, build):
    """Every spec's run key at four obs levels and two engines, on the
    catalogue scenario its model class assumes (keyed as ``build`` wraps
    it)."""
    lines = []
    for spec in all_specs():
        scenario = scenario_for(default_kind(spec), n0=24, k=3, seed=5)
        plan = spec.plan(scenario, **({"seed": 1} if spec.seeded else {}))
        keyed = build(scenario)
        for engine in ("fast", "reference"):
            for obs in ("off", "timeline", "trace", "record"):
                key = cache.key(spec, keyed, engine=engine,
                                key_params=plan.key_params,
                                stop_when_complete=plan.stop_when_complete,
                                max_rounds=plan.max_rounds, obs=obs)
                lines.append(f"{spec.name} {engine} {obs} {key}")
    return lines


class TestFingerprintMemo:
    """A frozen scenario memoizes its fingerprint; every key built on the
    memoized fingerprint is the one a fresh computation gives."""

    def _key(self, cache, scenario, spec=None, **params):
        return cache.key(spec or get_spec("algorithm1"), scenario,
                         engine="fast", key_params=params,
                         stop_when_complete=False, max_rounds=10)

    def test_equal_but_differently_typed_params_key_apart(self, tmp_path):
        # 1 == 1.0 == True, but their canonical JSON differs
        scenario = hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2,
                                           seed=5)
        cache = ResultCache(tmp_path)
        keys = [self._key(cache, scenario, x=x) for x in (1, 1.0, True)]
        assert len(set(keys)) == 3
        fresh = _unmemoized(scenario)
        assert keys == [self._key(cache, fresh, x=x) for x in (1, 1.0, True)]

    def test_spec_version_changes_the_key_of_a_memoized_scenario(
        self, tmp_path
    ):
        scenario = hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2,
                                           seed=5)
        cache = ResultCache(tmp_path)
        spec = get_spec("algorithm1")
        base = self._key(cache, scenario, spec)
        assert scenario._memo == {"fingerprint": scenario_fingerprint(
            _unmemoized(scenario))}
        bumped = self._key(cache, scenario, replace(spec, version=2))
        assert bumped != base
        assert bumped == self._key(cache, _unmemoized(scenario),
                                   replace(spec, version=2))
        assert self._key(cache, scenario, spec) == base

    #: sha256 of :func:`_keys_of_every_spec`'s lines, computed before
    #: scenarios were frozen: a cache filled then still replays
    _EVERY_SPEC = "b5f4ab3f0878a85473a2d2c5ca9c0f999161d9fdbe24bdc507a176b12290c281"

    def test_memoized_keys_equal_fresh_keys_for_every_spec(self, tmp_path):
        import hashlib

        cache = ResultCache(tmp_path)
        fresh = _keys_of_every_spec(cache, _unmemoized)
        memo = {}

        def shared(scenario):  # one instance per catalogue build, reused
            return memo.setdefault(scenario_fingerprint(scenario), scenario)

        first = _keys_of_every_spec(cache, shared)
        repeat = _keys_of_every_spec(cache, shared)
        assert first == fresh == repeat
        assert hashlib.sha256("\n".join(fresh).encode()).hexdigest() == \
            self._EVERY_SPEC
        assert all(s._memo for s in memo.values())


def _fingerprint_and_key(scenario):
    key = ResultCache("unused").key(
        get_spec("flood-all"), scenario, engine="fast", key_params={},
        stop_when_complete=True, max_rounds=5)
    return scenario_fingerprint(scenario), key


def _fingerprint_metric(scenario, seed):
    return {"prefix": int(scenario_fingerprint(scenario)[:8], 16)}


class TestFrozenScenario:
    """A built scenario cannot change, so its memo never goes stale."""

    @pytest.fixture
    def lossy(self):
        from repro.experiments.scenarios import lossy_scenario

        base = hinet_one_scenario(n0=20, theta=6, k=3, L=2, seed=4)
        return lossy_scenario(base, 0.1, seed=2)

    @pytest.mark.parametrize("field", ["name", "k", "initial", "params",
                                       "link", "family", "trace"])
    def test_rejects_attribute_assignment(self, lossy, field):
        from dataclasses import FrozenInstanceError

        with pytest.raises(FrozenInstanceError):
            setattr(lossy, field, getattr(lossy, field))

    @pytest.mark.parametrize("field, key, value", [
        ("initial", 0, frozenset({1})),
        ("params", "T", 2),
        ("link", "p", 0.5),
    ])
    def test_rejects_item_assignment(self, lossy, field, key, value):
        mapping = getattr(lossy, field)
        before = dict(mapping)
        with pytest.raises(TypeError, match="read-only"):
            mapping[key] = value
        with pytest.raises(TypeError, match="read-only"):
            del mapping[key]
        for mutate in (lambda: mapping.update({key: value}),
                       lambda: mapping.setdefault("new", value),
                       lambda: mapping.pop(key), mapping.popitem,
                       mapping.clear):
            with pytest.raises(TypeError, match="read-only"):
                mutate()
        with pytest.raises(TypeError, match="read-only"):
            mapping |= {key: value}
        assert dict(getattr(lossy, field)) == before

    def test_nested_link_lists_are_read_only(self, lossy):
        spec = PinpointFault(2, 1, 0, tiers=("fast",)).spec()
        scenario = replace(lossy, link=spec)
        spec["tiers"].append("reference")  # the caller's copy, not ours
        assert scenario.link["tiers"] == ["fast"]
        with pytest.raises(TypeError, match="read-only"):
            scenario.link["tiers"].append("reference")
        assert json.loads(json.dumps(scenario.link))["tiers"] == ["fast"]

    def test_constructor_copies_what_it_is_given(self):
        from repro.experiments.scenarios import Scenario

        base = hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2,
                                       seed=5, verify=False)
        params = dict(base.params)
        initial = {v: set(t) for v, t in base.initial.items()}
        scenario = Scenario(name=base.name, trace=base.trace, k=base.k,
                            initial=initial, params=params)
        before = scenario_fingerprint(scenario)
        params["T"] = 99
        initial[0].add(2)
        assert scenario.params["T"] == base.params["T"]
        assert all(type(t) is frozenset for t in scenario.initial.values())
        assert scenario_fingerprint(scenario) == before == \
            scenario_fingerprint(base)

    def test_serialises(self, lossy):
        from repro.io import scenario_from_dict, scenario_to_dict

        text = json.dumps(scenario_to_dict(lossy))
        back = scenario_from_dict(json.loads(text))
        assert back.link == lossy.link == {"kind": "iid-loss", "p": 0.1,
                                           "seed": 2}
        assert back.params == {k: v for k, v in lossy.params.items()
                               if k != "generator"}
        assert scenario_fingerprint(back) == scenario_fingerprint(lossy)
        assert json.loads(json.dumps(lossy.link)) == lossy.link

    def test_pickle_round_trip_drops_the_memo(self, lossy):
        import copy
        import pickle

        expected = _fingerprint_and_key(lossy)
        assert lossy._memo
        for back in (pickle.loads(pickle.dumps(lossy)), copy.copy(lossy),
                     copy.deepcopy(lossy)):
            assert back._memo == {}
            assert back == lossy
            assert type(back.params) is type(lossy.params)
            with pytest.raises(TypeError, match="read-only"):
                back.params["T"] = 2
            assert _fingerprint_and_key(back) == expected

    def test_survives_process_pool_workers(self, lossy):
        from functools import partial

        from repro.experiments.parallel import parallel_map
        from repro.experiments.replication import replicate

        one = hinet_interval_scenario(n0=24, theta=7, k=3, alpha=3, L=2,
                                      seed=5)
        scenarios = [lossy, one]
        local = [_fingerprint_and_key(s) for s in scenarios]
        assert parallel_map(_fingerprint_and_key, scenarios,
                            processes=2) == local
        summary = replicate(partial(_fingerprint_metric, lossy),
                            seeds=[1, 2], processes=2)
        assert summary["prefix"].mean == int(local[0][0][:8], 16)

    @pytest.mark.parametrize("change", [
        {"k": 2},
        {"link": {"kind": "iid-loss", "p": 0.2, "seed": 2}},
        {"link": None},
        {"params": {"T": 1, "L": 2, "theta": 6, "rounds": 19}},
        {"name": "renamed"},
    ])
    def test_replace_never_carries_a_stale_memo(self, lossy, change):
        before = _fingerprint_and_key(lossy)
        variant = replace(lossy, **change)
        assert variant._memo == {}
        after = _fingerprint_and_key(variant)
        assert after == _fingerprint_and_key(_unmemoized(variant))
        assert after[0] != before[0] and after[1] != before[1]
        assert _fingerprint_and_key(lossy) == before

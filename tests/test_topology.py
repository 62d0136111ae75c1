"""Unit tests for repro.sim.topology.Snapshot."""

import json
import os
import pickle
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.topology as topology
from repro.experiments.cache import ResultCache
from repro.experiments.runner import execute
from repro.experiments.scenarios import hinet_interval_scenario, hinet_one_scenario
from repro.graphs import properties
from repro.io import trace_to_dict
from repro.roles import Role
from repro.sim.topology import GraphTrace, Snapshot

#: Nightly CI deepens every sweep (REPRO_HYPOTHESIS_SCALE=8); default 1.
_SCALE = int(os.environ.get("REPRO_HYPOTHESIS_SCALE", "1"))


class TestAdjacencyFromEdges:
    """Adjacency built from edge lists by :meth:`Snapshot.from_edges`."""

    def test_symmetric(self):
        adj = Snapshot.from_edges(3, [(0, 1)]).adj
        assert adj[0] == frozenset({1})
        assert adj[1] == frozenset({0})
        assert adj[2] == frozenset()

    def test_duplicate_edges_harmless(self):
        adj = Snapshot.from_edges(2, [(0, 1), (1, 0), (0, 1)]).adj
        assert adj[0] == frozenset({1})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at node 1"):
            Snapshot.from_edges(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range"):
            Snapshot.from_edges(2, [(0, 2)])


class TestAdjacencyGiven:
    """``Snapshot(adj=…)`` makes the checks :meth:`Snapshot.from_edges`
    makes, plus symmetry, so no tier sees an adjacency the others read
    differently."""

    def test_asymmetric_rejected(self):
        """Node 0 lists 1 but 1 does not list 0: the reference engine used
        to flood 0 → 1 over ``adj`` while the vectorised loop read a CSR
        without that edge.  The snapshot no longer exists, so the tiers
        have nothing to disagree on; its symmetric closure runs alike."""
        from repro.baselines.flooding import make_flood_all_factory
        from repro.sim.engine import SynchronousEngine

        with pytest.raises(ValueError, match=r"not symmetric: 1 in adj\[0\]"):
            Snapshot(adj=(frozenset({1}), frozenset()))
        trace = GraphTrace([Snapshot(adj=(frozenset({1}), frozenset({0})))] * 3)
        initial = {0: frozenset({0}), 1: frozenset()}
        ref, fast = (
            SynchronousEngine(engine=engine).run(
                trace, make_flood_all_factory(), 1, initial, 3
            )
            for engine in ("reference", "fast")
        )
        assert fast.algorithms is None and ref.algorithms is not None
        assert ref.complete and fast.complete
        assert fast.outputs == ref.outputs and fast.metrics == ref.metrics

    def test_out_of_range_neighbour_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(1, 5\) out of range for n=2"):
            Snapshot(adj=({1}, {0, 5}))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at node 0"):
            Snapshot(adj=({0, 1}, {0}))

    def test_repeated_neighbour_rejected(self):
        with pytest.raises(ValueError, match="lists a neighbour twice"):
            Snapshot(adj=([1, 1], [0]))

    def test_roles_length_checked(self):
        adj = (frozenset({1}), frozenset({0}))
        with pytest.raises(ValueError, match="roles has 3 entries, expected n=2"):
            Snapshot(adj=adj, roles=(Role.HEAD, Role.MEMBER, Role.MEMBER))
        with pytest.raises(ValueError, match="roles has 1 entries, expected n=2"):
            Snapshot(adj=adj, roles=(Role.HEAD,))

    def test_given_views_kept_and_arrays_built(self):
        adj = (frozenset({1, 2}), frozenset({0}), frozenset({0}))
        snap = Snapshot(adj=adj)
        assert snap.adj is adj
        assert snap.arrays().indices.tolist() == [1, 2, 0, 0]
        assert snap == Snapshot.from_edges(3, [(0, 1), (0, 2)])


class TestSnapshotBasics:
    def test_edges_normalised(self, triangle):
        assert triangle.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_edge_set_frozen(self, triangle):
        es = triangle.edge_set()
        assert isinstance(es, frozenset)
        assert (1, 2) in es

    def test_degree(self, path5):
        assert path5.degree(0) == 1
        assert path5.degree(2) == 2

    def test_from_networkx(self):
        snap = Snapshot.from_networkx(nx.path_graph(4))
        assert snap.n == 4
        assert snap.neighbors(1) == frozenset({0, 2})

    def test_flat_snapshot_roleless(self, triangle):
        assert triangle.role(0) is None
        assert triangle.head(0) is None
        assert not triangle.clustered


class TestSnapshotHierarchy:
    def test_heads(self, two_clusters):
        assert two_clusters.heads() == frozenset({0, 3})

    def test_cluster_members_include_head_and_gateway(self, two_clusters):
        assert two_clusters.cluster_members(0) == frozenset({0, 1, 2})
        assert two_clusters.cluster_members(3) == frozenset({3, 4})

    def test_clusters_dict(self, two_clusters):
        assert two_clusters.clusters() == {
            0: frozenset({0, 1, 2}),
            3: frozenset({3, 4}),
        }

    def test_validate_passes(self, two_clusters):
        two_clusters.validate_hierarchy()

    def test_hierarchy_query_on_flat_raises(self, triangle):
        with pytest.raises(ValueError):
            triangle.heads()


class TestHierarchyValidation:
    def test_head_must_self_affiliate(self):
        snap = Snapshot.from_edges(
            2, [(0, 1)],
            roles=[Role.HEAD, Role.MEMBER],
            head_of=[1, 1],  # head 0 claims cluster 1
        )
        with pytest.raises(ValueError, match="head 0"):
            snap.validate_hierarchy()

    def test_member_must_join_actual_head(self):
        snap = Snapshot.from_edges(
            3, [(0, 1), (1, 2)],
            roles=[Role.HEAD, Role.MEMBER, Role.MEMBER],
            head_of=[0, 2, None],  # node 1 joins non-head 2
        )
        with pytest.raises(ValueError, match="non-head"):
            snap.validate_hierarchy()

    def test_member_must_be_adjacent_to_head(self):
        snap = Snapshot.from_edges(
            3, [(0, 1)],
            roles=[Role.HEAD, Role.MEMBER, Role.MEMBER],
            head_of=[0, 0, 0],  # node 2 not adjacent to head 0
        )
        with pytest.raises(ValueError, match="not adjacent"):
            snap.validate_hierarchy()

    def test_unaffiliated_node_tolerated_by_snapshot(self):
        snap = Snapshot.from_edges(
            2, [(0, 1)],
            roles=[Role.HEAD, Role.MEMBER],
            head_of=[0, None],
        )
        snap.validate_hierarchy()  # None = unaffiliated is structurally legal


def _loop_validate(adj, roles, head_of):
    """The per-node loop reference for :meth:`Snapshot.validate_hierarchy`:
    the message of the first violation, or ``None``."""
    heads = {v for v, role in enumerate(roles) if role is Role.HEAD}
    for v, (role, h) in enumerate(zip(roles, head_of)):
        if role is Role.HEAD:
            if h != v:
                return f"head {v} has cluster id {h}, expected itself"
        elif h is not None:
            if h not in heads:
                return f"node {v} affiliated to non-head {h}"
            if h not in adj[v]:
                return f"node {v} affiliated to head {h} but they are not adjacent"
    return None


@st.composite
def _hierarchies(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          max_size=16))
    roles = draw(st.lists(st.sampled_from(list(Role)), min_size=n, max_size=n))
    head = st.one_of(st.none(), st.integers(min_value=0, max_value=n))
    head_of = draw(st.lists(head, min_size=n, max_size=n))
    return n, edges, roles, head_of


class TestValidationOracle:
    @settings(max_examples=200 * _SCALE, deadline=None)
    @given(_hierarchies())
    def test_matches_loop_reference(self, case):
        n, edges, roles, head_of = case
        built = Snapshot.from_edges(n, edges, roles=roles, head_of=head_of)
        given_adj = Snapshot(adj=built.adj, roles=tuple(roles),
                             head_of=tuple(head_of))
        expected = _loop_validate(built.adj, roles, head_of)
        for snap in (built, given_adj):
            if expected is None:
                snap.validate_hierarchy()
            else:
                with pytest.raises(ValueError) as err:
                    snap.validate_hierarchy()
                assert str(err.value) == expected


class TestRole:
    def test_values_match_paper(self):
        assert str(Role.HEAD) == "h"
        assert str(Role.GATEWAY) == "g"
        assert str(Role.MEMBER) == "m"

    def test_broadcast_duty(self):
        assert Role.HEAD.broadcasts
        assert Role.GATEWAY.broadcasts
        assert not Role.MEMBER.broadcasts


def _oracle(n, edges):
    """Set-based reference for :meth:`Snapshot.from_edges`: per-node
    neighbour sets, or the ``ValueError`` message the first bad edge
    raises."""
    neigh = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            return f"self-loop at node {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
        neigh[u].add(v)
        neigh[v].add(u)
    return neigh


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    node = st.integers(min_value=-1, max_value=n)  # one id past each end
    valid = st.integers(min_value=0, max_value=max(n - 1, 0))
    pair = st.tuples(node, node) if draw(st.booleans()) else st.tuples(valid, valid)
    return n, draw(st.lists(pair, max_size=30))


class TestFromEdgesOracle:
    @settings(max_examples=150 * _SCALE, deadline=None)
    @given(_edge_lists())
    def test_matches_set_oracle(self, case):
        n, edges = case
        expected = _oracle(n, edges)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                Snapshot.from_edges(n, edges)
            assert str(err.value) == expected
            return
        snap = Snapshot.from_edges(n, edges)
        assert snap.n == n
        assert snap.adj == tuple(frozenset(s) for s in expected)
        assert snap.edges() == sorted(
            (u, v) for u in range(n) for v in expected[u] if u < v
        )
        arrs = snap.arrays()
        degrees = [len(s) for s in expected]
        assert arrs.degrees.dtype == arrs.indptr.dtype == arrs.indices.dtype == np.int64
        assert arrs.degrees.tobytes() == np.array(degrees, dtype=np.int64).tobytes()
        assert arrs.indptr.tobytes() == np.cumsum([0] + degrees, dtype=np.int64).tobytes()
        assert arrs.indices.tobytes() == np.array(
            [v for s in expected for v in sorted(s)], dtype=np.int64
        ).tobytes()
        # bytes equal to the conversion of the same frozenset adjacency
        via_adj = Snapshot(adj=tuple(frozenset(s) for s in expected)).arrays()
        assert arrs.indptr.tobytes() == via_adj.indptr.tobytes()
        assert arrs.indices.tobytes() == via_adj.indices.tobytes()

    def test_isolated_nodes_and_numpy_input(self):
        snap = Snapshot.from_edges(5, np.array([[3, 1], [1, 3]]))
        assert snap.adj == (frozenset(), frozenset({3}), frozenset(),
                            frozenset({1}), frozenset())
        assert snap.edges() == [(1, 3)]

    def test_hierarchy_arrays_match_adj_conversion(self, two_clusters):
        via_adj = Snapshot(adj=two_clusters.adj, roles=two_clusters.roles,
                           head_of=two_clusters.head_of).arrays()
        arrs = two_clusters.arrays()
        for field in ("indptr", "indices", "degrees", "roles", "head_of",
                      "head_adjacent"):
            assert getattr(arrs, field).tobytes() == getattr(via_adj, field).tobytes()


class TestValueSemantics:
    def _pair(self):
        edges = [(0, 1), (0, 2), (2, 3), (3, 4)]
        roles = (Role.HEAD, Role.MEMBER, Role.GATEWAY, Role.HEAD, Role.MEMBER)
        head_of = (0, 0, 0, 3, 3)
        built = Snapshot.from_edges(5, edges, roles=roles, head_of=head_of)
        adj = tuple(frozenset(s) for s in _oracle(5, edges))
        return built, Snapshot(adj=adj, roles=roles, head_of=head_of)

    def test_array_and_adj_built_equal(self):
        built, given_adj = self._pair()
        assert built == given_adj and given_adj == built
        assert hash(built) == hash(given_adj)
        assert len({built, given_adj}) == 1

    def test_content_differences_break_equality(self):
        built, _ = self._pair()
        assert built != Snapshot.from_edges(5, [(0, 1), (0, 2), (2, 3)],
                                            roles=built.roles,
                                            head_of=built.head_of)
        assert built != Snapshot.from_edges(5, built.edges())  # flat

    @pytest.mark.parametrize("materialise", [False, True])
    def test_pickle_round_trip(self, materialise):
        built, given_adj = self._pair()
        for snap in (built, given_adj):
            if materialise:
                snap.adj, snap.roles, snap.head_of, snap.edges()
            back = pickle.loads(pickle.dumps(snap))
            assert back == snap and hash(back) == hash(snap)
            assert back.adj == given_adj.adj
            assert back.roles == given_adj.roles
            assert back.head_of == given_adj.head_of

    def test_frozen(self, triangle):
        with pytest.raises(AttributeError):
            triangle.adj = ()


class TestCanonicalEdgeOrder:
    def test_shuffled_input_gives_identical_json(self):
        rng = random.Random(7)
        n = 64
        edges = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(400)})
        blobs = set()
        for seed in range(6):
            shuffled = list(edges)
            random.Random(seed).shuffle(shuffled)
            shuffled = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(shuffled)]
            trace = GraphTrace([Snapshot.from_edges(n, shuffled)])
            blobs.add(json.dumps(trace_to_dict(trace), sort_keys=True))
        assert len(blobs) == 1
        assert json.loads(blobs.pop())["rounds"][0]["edges"] == [list(e) for e in edges]


class TestArrayFirstPaperSweep:
    """The paper-sweep path — unverified HiNet builds, the certifiers, and
    the fast engine behind a result cache — runs on arrays alone."""

    def test_never_materialises_adjacency(self, tmp_path, monkeypatch):
        def forbidden(arrs):
            pytest.fail("frozenset adjacency materialised on the array path")

        monkeypatch.setattr(topology, "_adjacency", forbidden)
        cache = ResultCache(tmp_path)
        interval = hinet_interval_scenario(n0=40, theta=12, k=6, alpha=3, L=2,
                                           seed=11, verify=False)
        one = hinet_one_scenario(n0=40, theta=12, k=6, L=2, seed=12,
                                 verify=False)
        assert properties.is_hinet(interval.trace, interval.params["T"], 2)
        assert properties.is_hinet(one.trace, 1, 2)
        assert properties.is_T_interval_connected(one.trace, 1)
        for _ in range(2):  # cold, then warm
            for algorithm in ("algorithm1", "klo-interval"):
                assert execute(algorithm, interval, engine="fast", cache=cache).complete
            for algorithm in ("algorithm2", "klo-one"):
                assert execute(algorithm, one, engine="fast", cache=cache).complete

    def test_reference_engine_materialises_lazily(self, monkeypatch):
        built = []
        real = topology._adjacency

        def counting(arrs):
            built.append(arrs)
            return real(arrs)

        monkeypatch.setattr(topology, "_adjacency", counting)
        scenario = hinet_interval_scenario(n0=24, theta=6, k=4, alpha=2, L=2,
                                           seed=5, verify=False)
        assert not built
        fast = execute("algorithm1", scenario, engine="fast")
        assert not built
        ref = execute("algorithm1", scenario, engine="reference")
        assert built and len(built) <= scenario.trace.horizon
        assert ref.row() == fast.row()

"""Tests for the backbone dynamic diameter."""

import pytest

from repro.graphs.dynamic_diameter import backbone_dynamic_diameter
from repro.graphs.generators.static import path_graph, static_trace
from repro.roles import Role
from repro.sim.topology import GraphTrace, Snapshot


def _chain(n_heads, L=2, rounds=4):
    """Static chain of heads with L-1 gateways per link, no members."""
    per = L - 1
    n = n_heads + (n_heads - 1) * per
    roles = []
    head_of = []
    edges = []
    ids = list(range(n))
    # layout: h g h g h ... (L=2)
    heads = [i * L for i in range(n_heads)]
    for v in range(n):
        if v in heads:
            roles.append(Role.HEAD)
            head_of.append(v)
        else:
            roles.append(Role.GATEWAY)
            head_of.append(max(h for h in heads if h < v))
    for v in range(n - 1):
        edges.append((v, v + 1))
    snap = Snapshot.from_edges(n, edges, roles=roles, head_of=head_of)
    return GraphTrace([snap] * rounds)


class TestBackboneDiameter:
    def test_static_chain(self):
        trace = _chain(3, L=2, rounds=10)
        # backbone is a path of 5 nodes (h g h g h): diameter 4
        assert backbone_dynamic_diameter(trace) == 4

    def test_requires_clustered(self):
        flat = static_trace(path_graph(4), rounds=2)
        with pytest.raises(ValueError):
            backbone_dynamic_diameter(flat)

    def test_on_generated_hinet(self, small_hinet):
        d = backbone_dynamic_diameter(small_hinet.trace)
        assert d is not None
        # backbone of h heads chained at L=2 has <= 2*(h-1) diameter, and
        # noise edges can only shorten it
        h = small_hinet.params.num_heads
        assert d <= 2 * (h - 1) + 1

    def test_none_when_backbone_unreachable(self):
        # two heads with no connecting edge, ever
        snap = Snapshot.from_edges(
            4, [(0, 1), (2, 3)],
            roles=[Role.HEAD, Role.MEMBER, Role.HEAD, Role.MEMBER],
            head_of=[0, 0, 2, 2],
        )
        trace = GraphTrace([snap] * 5)
        assert backbone_dynamic_diameter(trace) is None

    def test_backbone_faster_than_full_network(self, small_hinet):
        """The backbone circulates information at least as fast as the
        full node set needs — the structural reason heads can serve as
        the dissemination spine."""
        from repro.graphs.dynamic_diameter import dynamic_diameter

        bb = backbone_dynamic_diameter(small_hinet.trace)
        full = dynamic_diameter(small_hinet.trace)
        assert bb is not None and full is not None
        assert bb <= full + 1

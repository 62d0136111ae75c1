"""Remaining small-surface coverage: io corruption paths, viz corners,
runner records, report formatting details."""

import pytest

from repro.experiments.report import records_to_markdown
from repro.experiments.runner import execute
from repro.experiments.scenarios import hinet_interval_scenario
from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.io import trace_from_dict, trace_to_dict
from repro.roles import Role
from repro.sim.topology import Snapshot
from repro.viz import render_clusters


class TestIoCorruption:
    def test_head_of_length_mismatch(self):
        trace = generate_hinet(
            HiNetParams(n=6, theta=2, num_heads=2, T=2, phases=1), seed=0
        ).trace
        data = trace_to_dict(trace)
        data["rounds"][0]["head_of"] = data["rounds"][0]["head_of"][:-1]
        with pytest.raises(ValueError, match="head_of"):
            trace_from_dict(data)

    def test_unknown_role_letter_rejected(self):
        trace = generate_hinet(
            HiNetParams(n=4, theta=1, num_heads=1, T=1, phases=1), seed=0
        ).trace
        data = trace_to_dict(trace)
        data["rounds"][0]["roles"] = "hqmm"
        with pytest.raises(ValueError):
            trace_from_dict(data)

    def test_null_head_of_roundtrips(self):
        snap = Snapshot.from_edges(
            2, [(0, 1)],
            roles=[Role.HEAD, Role.MEMBER],
            head_of=[0, None],
        )
        from repro.sim.topology import GraphTrace

        back = trace_from_dict(trace_to_dict(GraphTrace([snap])))
        assert back.snapshot(0).head(1) is None


class TestVizCorners:
    def test_unaffiliated_nodes_listed(self):
        snap = Snapshot.from_edges(
            3, [(0, 1)],
            roles=[Role.HEAD, Role.MEMBER, Role.MEMBER],
            head_of=[0, 0, None],
        )
        out = render_clusters(snap)
        assert "unaffiliated: 2" in out

    def test_no_gateway_line_when_none(self):
        snap = Snapshot.from_edges(
            2, [(0, 1)],
            roles=[Role.HEAD, Role.MEMBER],
            head_of=[0, 0],
        )
        assert "gateways" not in render_clusters(snap)


class TestRunnerRecord:
    def test_row_roundtrip_through_markdown(self):
        scenario = hinet_interval_scenario(
            n0=20, theta=6, k=2, alpha=2, L=2, seed=41,
        )
        rec = execute("algorithm1", scenario)
        md = records_to_markdown([rec.row()])
        assert "| algorithm |" in md
        assert str(rec.tokens_sent) in md

    def test_scenario_metadata_carried(self):
        scenario = hinet_interval_scenario(
            n0=20, theta=6, k=2, alpha=2, L=2, seed=41,
        )
        rec = execute("algorithm1", scenario)
        assert rec.scenario == scenario.name
        assert rec.n == 20 and rec.k == 2

"""Tests for the table/figure reproduction harness and report formatting."""

import pytest

from repro.experiments.figures import (
    fig1_example_network,
    fig2_definition_lattice,
    fig3_walkthrough,
)
from repro.experiments.report import format_records, format_table, records_to_markdown
from repro.experiments.tables import analytic_table3, simulated_table3
from repro.core.analysis import CostParams, table2


class TestReportFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_format_table_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_float_formatting(self):
        out = format_table(["x"], [[1.25], [2.0]])
        assert "1.2" in out or "1.3" in out
        assert "2\n" in out + "\n"

    def test_none_rendered_as_dash(self):
        out = format_table(["x"], [[None]])
        assert "-" in out.splitlines()[-1]

    def test_records_empty(self):
        assert format_records([]) == "(no rows)"

    def test_markdown_shape(self):
        md = records_to_markdown([{"a": 1, "b": 2}])
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| 1 | 2 |"


class TestAnalyticTables:
    def test_table2_rows_in_paper_order(self):
        p = CostParams(n0=50, theta=10, nm=20, nr=2, k=4, alpha=2, L=2)
        rows = table2(p)
        assert [r["model"] for r in rows] == [
            "(k+a*L)-interval connected [7]",
            "(k+a*L, L)-HiNet",
            "1-interval connected [7]",
            "(1, L)-HiNet",
        ]

    def test_table3_deviation_annotations(self):
        rows = analytic_table3()
        devs = [row["comm_deviation"] for row in rows]
        assert devs == [0, 0, 0, -960]


class TestSimulatedTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return simulated_table3(seed=2013, n0=60)

    def test_all_complete(self, rows):
        assert all(r["complete"] for r in rows)

    def test_shape_hinet_cheaper_interval(self, rows):
        klo, hinet = rows[0], rows[1]
        assert hinet["measured_comm"] < klo["measured_comm"]

    def test_shape_hinet_cheaper_one_interval(self, rows):
        klo, hinet = rows[2], rows[3]
        assert hinet["measured_comm"] < klo["measured_comm"]

    def test_completion_within_analytic_time(self, rows):
        for row in rows:
            assert row["measured_completion"] <= row["analytic_time"]


class TestFigures:
    def test_fig1_valid_hierarchy_and_text(self):
        snap, text = fig1_example_network()
        snap.validate_hierarchy()
        assert "cluster 0" in text
        assert snap.heads() == frozenset({0, 4, 8})

    def test_fig2_lattice_rows(self):
        reports, text = fig2_definition_lattice()
        stable = next(v for k, v in reports.items() if k.startswith("(T="))
        assert stable["HiNet"]
        churn_at_T = next(
            v for k, v in reports.items() if k.startswith("(1,") and "@ T=12" in k
        )
        assert not churn_at_T["HiNet"]
        churn_at_1 = next(
            v for k, v in reports.items() if "@ T=1" in k
        )
        assert churn_at_1["HiNet"]
        assert "lattice" in text

    def test_fig3_walkthrough_narrative(self):
        text = fig3_walkthrough()
        assert "token 0 starts at member" in text
        assert "complete" in text
        assert "(h)" in text and "(g)" in text  # head and gateway hops shown

    def test_fig3_walkthrough_golden(self):
        """The default-seed walkthrough, pinned byte for byte: the hop list
        is rebuilt from the recording's message log."""
        assert fig3_walkthrough() == FIG3_GOLDEN


#: ``fig3_walkthrough()`` at its default seed.
FIG3_GOLDEN = (
    "Figure 3 — Algorithm 1 walkthrough (k=1 token, 3 clusters, T=3, L=2)\n"
    "  token 0 starts at member node 4\n"
    "\n"
    "  round  0: node 4 (m) -> node 0 (h)\n"
    "  round  1: node 0 (h) -> node 1 (g)\n"
    "  round  1: node 0 (h) -> node 4 (m)\n"
    "  round  1: node 0 (h) -> node 5 (m)\n"
    "  round  1: node 0 (h) -> node 10 (m)\n"
    "  round  1: node 0 (h) -> node 11 (m)\n"
    "  round  2: node 1 (g) -> node 2 (h)\n"
    "  round  3: node 2 (h) -> node 3 (g)\n"
    "  round  3: node 2 (h) -> node 6 (m)\n"
    "  round  3: node 2 (h) -> node 7 (m)\n"
    "  round  3: node 2 (h) -> node 9 (m)\n"
    "  round  4: node 3 (g) -> node 8 (h)\n"
    "\n"
    "  dissemination complete at round 5, 7 tokens sent"
)

"""Cross-run telemetry aggregation (repro.obs.aggregate): percentile
bands, length padding, role totals, dashboard rendering, and the feeder
helper in experiments/replication.py plus the `repro report` CLI
surface."""

import pytest

from repro import cli
from repro.experiments.replication import replicate_records
from repro.experiments.scenarios import hinet_one_scenario
from repro.obs import RunTimeline, merge_timelines, render_dashboard


def _timeline(coverages, complete=None, role="head", messages=2, tokens=3):
    rounds = len(coverages)
    return RunTimeline(
        coverage=list(coverages),
        nodes_complete=list(complete or [0] * rounds),
        tokens=[tokens] * rounds,
        messages=[messages] * rounds,
        role_messages={role: [messages] * rounds},
        role_tokens={role: [tokens] * rounds},
    )


class TestMergeTimelines:
    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            merge_timelines([])
        with pytest.raises(ValueError):
            merge_timelines([None, None])

    def test_single_run_bands_collapse(self):
        bands = merge_timelines([_timeline([2, 5, 9])])
        assert bands.runs == 1 and bands.rounds == 3
        assert bands.coverage_p10 == bands.coverage_p50 == bands.coverage_p90 \
            == [2, 5, 9]

    def test_percentiles_are_observed_values(self):
        # nearest-rank: every band value is one of the inputs
        tls = [_timeline([c]) for c in (1, 4, 7, 10, 13)]
        bands = merge_timelines(tls)
        assert bands.coverage_p10 == [1]
        assert bands.coverage_p50 == [7]
        assert bands.coverage_p90 == [13]

    def test_short_runs_hold_final_state(self):
        # a run finishing early keeps its last coverage for later rounds
        bands = merge_timelines([_timeline([6]), _timeline([2, 4, 8])])
        assert bands.rounds == 3
        assert bands.coverage_p90 == [6, 6, 8]
        assert bands.completion_rounds == [1, 3]

    def test_none_entries_filtered(self):
        bands = merge_timelines([None, _timeline([3])])
        assert bands.runs == 1

    def test_role_totals_sum_across_runs(self):
        tls = [_timeline([1, 2], role="head"), _timeline([1, 2], role="member")]
        bands = merge_timelines(tls)
        assert bands.role_messages == {"head": 4, "member": 4}
        assert bands.role_tokens == {"head": 6, "member": 6}

    def test_completion_summary(self):
        bands = merge_timelines([_timeline([1] * r) for r in (2, 5, 9)])
        assert bands.completion_summary() == {"min": 2, "p50": 5, "max": 9}

    def test_single_run_percentile_ranks_pin_to_the_one_value(self):
        # nearest-rank with one sample: every q maps to rank 1
        bands = merge_timelines([_timeline([7])])
        assert bands.coverage_p10 == bands.coverage_p50 \
            == bands.coverage_p90 == [7]
        assert bands.completion_summary() == {"min": 1, "p50": 1, "max": 1}

    def test_zero_round_runs_merge_to_empty_bands(self):
        bands = merge_timelines([RunTimeline(), RunTimeline()])
        assert bands.runs == 2 and bands.rounds == 0
        assert bands.coverage_p10 == [] and bands.complete_p50 == []
        assert bands.completion_rounds == [0, 0]
        assert bands.completion_summary() == {"min": 0, "p50": 0, "max": 0}

    def test_zero_round_run_pads_as_zero_coverage(self):
        # an empty run merged with a real one contributes 0-coverage
        # columns, not an exception
        bands = merge_timelines([RunTimeline(), _timeline([4, 8])])
        assert bands.rounds == 2
        assert bands.coverage_p10 == [0, 0]
        assert bands.coverage_p90 == [4, 8]
        assert bands.completion_rounds == [0, 2]

    def test_unequal_run_lengths_keep_percentiles_observed(self):
        # three runs of lengths 1/2/4: every band value must still be a
        # value some run actually reported (after final-state padding)
        tls = [_timeline([10]), _timeline([2, 6]), _timeline([1, 3, 5, 7])]
        bands = merge_timelines(tls)
        assert bands.rounds == 4
        observed = {0, 1, 2, 3, 5, 6, 7, 10}
        for series in (bands.coverage_p10, bands.coverage_p50,
                       bands.coverage_p90):
            assert set(series) <= observed
        assert bands.coverage_p90 == [10, 10, 10, 10]
        # round 3 sorts padded columns [6, 7, 10]: p10 takes rank 1 (= 6)
        assert bands.coverage_p10 == [1, 3, 5, 6]


class TestRenderDashboard:
    def _bands(self):
        return merge_timelines(
            [_timeline([2, 5, 9], complete=[0, 1, 3]),
             _timeline([3, 6, 9], complete=[0, 2, 3])]
        )

    def test_plain_text_contents(self):
        out = render_dashboard(self._bands(), title="demo")
        assert out.startswith("demo\n====")
        assert "completion rounds: min 3  median 3  max 3" in out
        assert "|" in out and "#" in out  # the bar chart
        assert "head" in out

    def test_markdown_contents(self):
        out = render_dashboard(self._bands(), markdown=True, title="demo")
        assert out.startswith("## demo")
        assert "| round | coverage p10 | p50 | p90 | complete p50 |" in out
        assert "| head |" in out

    def test_envelope_line_inside_and_outside(self):
        bands = self._bands()  # median run length 3
        out = render_dashboard(
            bands, envelope={"rounds": 36, "messages": 864, "tokens": 207})
        assert ("analytical envelope: rounds <= 36, messages <= 864, "
                "tokens <= 207") in out
        assert "median run at 0.08x of round bound (inside)" in out
        tight = render_dashboard(bands, envelope={"rounds": 2})
        assert "median run at 1.50x of round bound (OUTSIDE)" in tight

    def test_envelope_line_markdown_and_partial_bounds(self):
        out = render_dashboard(self._bands(), markdown=True,
                               envelope={"tokens": 99})
        assert "_analytical envelope: tokens <= 99_" in out
        # no round bound -> no verdict clause
        assert "round bound" not in out
        # nothing numeric -> the line is omitted entirely
        empty = render_dashboard(self._bands(), envelope={"rounds": None})
        assert "analytical envelope" not in empty

    def test_report_cli_shows_envelope_band(self, capsys):
        assert cli.main(["report", "algorithm2", "--n0", "16", "--theta", "5",
                         "--k", "3", "--replications", "2"]) == 0
        out = capsys.readouterr().out
        assert "analytical envelope:" in out
        assert "(inside)" in out

    def test_sampling_keeps_first_and_last_round(self):
        bands = merge_timelines([_timeline(list(range(1, 101)))])
        out = render_dashboard(bands, points=5)
        rows = [line for line in out.splitlines() if "|" in line]
        assert rows[0].split()[0] == "0" and rows[-1].split()[0] == "99"
        assert len(rows) <= 5


class TestFeeders:
    def test_replicate_records_returns_timelines(self):
        records = replicate_records(
            "algorithm2", hinet_one_scenario, replications=3, base_seed=7,
            scenario_kwargs={"n0": 16, "theta": 5, "k": 3, "verify": False},
        )
        assert len(records) == 3
        bands = merge_timelines([r.result.timeline for r in records])
        assert bands.runs == 3
        # every seed completed: final median coverage is n·k
        assert bands.coverage_p50[-1] == 16 * 3

    def test_replicate_records_parallel_matches_serial(self):
        kw = dict(replications=3, base_seed=7,
                  scenario_kwargs={"n0": 16, "theta": 5, "k": 3,
                                   "verify": False})
        serial = replicate_records("algorithm2", hinet_one_scenario, **kw)
        par = replicate_records("algorithm2", hinet_one_scenario,
                                processes=2, **kw)
        assert [r.result.timeline for r in par] == \
            [r.result.timeline for r in serial]

    def test_report_cli(self, capsys):
        assert cli.main(["report", "algorithm2", "--n0", "16", "--theta", "5",
                         "--k", "3", "--replications", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 seeds" in out and "completion rounds" in out

    def test_report_cli_markdown(self, capsys):
        assert cli.main(["report", "gossip", "--n0", "12", "--k", "2",
                         "--replications", "2", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| round | coverage p10 |" in out

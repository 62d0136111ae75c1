"""Tests for the Table 2 cost model and Table 3 reproduction, plus the
symbolic envelope engine (repro.analysis): registry-wide envelope
coverage, prediction semantics, the measured-vs-predicted validation
sweep, parameter-space argmin queries, and the ratio-table codec."""

from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io
from repro.analysis import (
    ENVELOPES,
    SYMBOL_TABLE,
    SYMBOLS,
    argmin_bound,
    envelope_for,
    evaluate,
    failures,
    predict,
    symbol,
    table_rows,
    validate_model,
)
from repro.core.analysis import (
    TABLE3_PAPER,
    TABLE3_PARAMS,
    TABLE3_PARAMS_ONE,
    CostParams,
    hinet_interval_comm,
    hinet_interval_time,
    hinet_one_comm,
    hinet_one_time,
    klo_interval_comm,
    klo_interval_time,
    klo_one_comm,
    klo_one_time,
    table2,
    table3,
)
from repro.experiments.scenarios import default_kind, scenario_for
from repro.registry import all_specs, get_spec


class TestTable3Exact:
    """The paper's published Table 3 numbers, row by row."""

    def test_klo_interval_row(self):
        assert klo_interval_time(TABLE3_PARAMS) == 180
        assert klo_interval_comm(TABLE3_PARAMS) == 8000

    def test_hinet_interval_row(self):
        assert hinet_interval_time(TABLE3_PARAMS) == 126
        assert hinet_interval_comm(TABLE3_PARAMS) == 4320

    def test_klo_one_row(self):
        assert klo_one_time(TABLE3_PARAMS_ONE) == 99
        assert klo_one_comm(TABLE3_PARAMS_ONE) == 79200

    def test_hinet_one_row_documents_paper_slip(self):
        """The formula yields 50 720; the paper prints 51 680 (a 960-token
        arithmetic slip in the original)."""
        assert hinet_one_time(TABLE3_PARAMS_ONE) == 99
        assert hinet_one_comm(TABLE3_PARAMS_ONE) == 50720
        assert TABLE3_PAPER["(1, L)-HiNet"]["comm_tokens"] == 51680

    def test_table3_rows_complete(self):
        rows = table3()
        assert [r["model"] for r in rows] == list(TABLE3_PAPER)
        for row in rows:
            published = TABLE3_PAPER[row["model"]]
            assert row["time_rounds"] == published["time_rounds"]
        # three of four comm entries match the paper exactly
        matches = sum(
            1 for row in rows
            if row["comm_tokens"] == TABLE3_PAPER[row["model"]]["comm_tokens"]
        )
        assert matches == 3


class TestValidation:
    def test_param_bounds(self):
        with pytest.raises(ValueError):
            CostParams(n0=0, theta=0, nm=0, nr=0, k=1)
        with pytest.raises(ValueError):
            CostParams(n0=10, theta=11, nm=0, nr=0, k=1)
        with pytest.raises(ValueError):
            CostParams(n0=10, theta=5, nm=11, nr=0, k=1)
        with pytest.raises(ValueError):
            CostParams(n0=10, theta=5, nm=5, nr=-1, k=1)
        with pytest.raises(ValueError):
            CostParams(n0=10, theta=5, nm=5, nr=0, k=1, alpha=0)

    def test_interval_T(self):
        assert TABLE3_PARAMS.interval_T == 18

    def test_table2_accepts_distinct_one_interval_params(self):
        rows = table2(TABLE3_PARAMS, TABLE3_PARAMS_ONE)
        assert rows[3]["comm_tokens"] == 50720
        rows_same = table2(TABLE3_PARAMS)
        assert rows_same[3]["comm_tokens"] == hinet_one_comm(TABLE3_PARAMS)


@st.composite
def cost_params(draw):
    n0 = draw(st.integers(2, 400))
    theta = draw(st.integers(1, n0))
    nm = draw(st.integers(0, n0 - 1))
    nr = draw(st.integers(0, 20))
    k = draw(st.integers(1, 64))
    alpha = draw(st.integers(1, 10))
    L = draw(st.integers(1, 3))
    return CostParams(n0=n0, theta=theta, nm=nm, nr=nr, k=k, alpha=alpha, L=L)


class TestModelProperties:
    @given(p=cost_params())
    @settings(max_examples=100, deadline=None)
    def test_costs_non_negative(self, p):
        for fn in (klo_interval_time, klo_interval_comm, hinet_interval_time,
                   hinet_interval_comm, klo_one_time, klo_one_comm,
                   hinet_one_time, hinet_one_comm):
            assert fn(p) >= 0

    @given(p=cost_params())
    @settings(max_examples=100, deadline=None)
    def test_comm_linear_in_k(self, p):
        """All Table 2 communication formulas are exactly linear in k."""
        from dataclasses import replace

        p2 = replace(p, k=2 * p.k)
        for fn in (klo_interval_comm, hinet_interval_comm, klo_one_comm,
                   hinet_one_comm):
            assert fn(p2) == pytest.approx(2 * fn(p))

    @given(p=cost_params())
    @settings(max_examples=100, deadline=None)
    def test_hinet_one_beats_klo_one_when_nr_small(self, p):
        """The paper's headline: if n_r < n0 - 1, Algorithm 2 strictly
        undercuts 1-interval KLO communication (for nm > 0)."""
        from dataclasses import replace

        p = replace(p, nr=0)
        if p.nm > 0 and p.k > 0:
            assert hinet_one_comm(p) < klo_one_comm(p)
        else:
            assert hinet_one_comm(p) <= klo_one_comm(p)

    @given(p=cost_params())
    @settings(max_examples=100, deadline=None)
    def test_hinet_interval_time_beats_klo_when_theta_small(self, p):
        """Time: (⌈θ/α⌉+1) phases vs ⌈n0/(αL)⌉ phases — HiNet wins whenever
        its phase count is smaller, both paying (k+αL) per phase."""
        from math import ceil

        hinet_phases = ceil(p.theta / p.alpha) + 1
        klo_phases = ceil(p.n0 / (p.alpha * p.L))
        assert (hinet_interval_time(p) <= klo_interval_time(p)) == (
            hinet_phases <= klo_phases
        )


# ---------------------------------------------------------------------------
# Symbolic envelope engine (repro.analysis)
# ---------------------------------------------------------------------------


class TestEnvelopeRegistry:
    def test_every_registered_spec_has_an_envelope(self):
        for spec in all_specs():
            env = spec.envelope()
            assert env is not None, f"{spec.name} has no analytical envelope"
            assert env.name == spec.name
            assert env is envelope_for(spec.name)

    def test_envelope_and_spec_registries_agree(self):
        assert set(ENVELOPES) == {spec.name for spec in all_specs()}

    def test_name_lookup_tolerates_separator_style(self):
        assert envelope_for("klo_interval") is envelope_for("klo-interval")
        assert envelope_for("no-such-algorithm") is None

    def test_kind_is_validated(self):
        env = ENVELOPES["algorithm1"]
        with pytest.raises(ValueError):
            dc_replace(env, kind="conjecture")

    def test_symbol_table_documents_every_symbol(self):
        assert {row["symbol"] for row in SYMBOL_TABLE} == set(SYMBOLS)
        assert symbol("alpha") is SYMBOLS["alpha"]
        with pytest.raises(KeyError):
            symbol("zeta")


class TestPredict:
    def _pred(self, name, n0=24, k=3):
        spec = get_spec(name)
        scenario = scenario_for(default_kind(spec), n0=n0, k=k, seed=2013)
        overrides = {"seed": 2013} if spec.seeded else {}
        return spec, predict(spec, scenario, **overrides)

    def test_theorem_round_bounds_equal_planned_budget(self):
        """A theorem envelope's round bound is exactly the budget the
        planner derives from the same formula — one source of truth."""
        for spec in all_specs():
            env = spec.envelope()
            if env.kind != "theorem":
                continue
            _, pred = self._pred(spec.name)
            assert pred.rounds == pred.budget, spec.name

    def test_algorithm1_table2_tokens_match_numeric_model(self):
        """The symbolic Table 2 token bound agrees with the numeric
        cost model in repro.core.analysis (plus the nm*k completion
        allowance the budget checker grants)."""
        p = TABLE3_PARAMS
        bound = evaluate(
            ENVELOPES["algorithm1"].tokens,
            {"n": p.n0, "k": p.k, "theta": p.theta, "alpha": p.alpha,
             "nm": p.nm, "nr": p.nr},
        )
        assert bound == hinet_interval_comm(p) + p.nm * p.k

    def test_klo_one_exact_table2_row(self):
        spec, pred = self._pred("klo-one")
        assert pred.tokens == (pred.n - 1) * pred.n * pred.k
        assert pred.tokens_form == "structural"

    def test_sharp_vs_structural_token_forms(self):
        _, alg1 = self._pred("algorithm1")
        assert alg1.tokens_form == "table2"
        _, flood = self._pred("flood-new")
        assert flood.tokens_form == "structural"

    def test_unbound_symbol_raises_with_diagnosis(self):
        with pytest.raises(ValueError, match="unbound symbol"):
            evaluate(SYMBOLS["n"] * SYMBOLS["k"], {"n": 10})

    def test_missing_envelope_raises_lookup_error(self):
        ghost = dc_replace(get_spec("algorithm1"), name="ghost-algorithm")
        scenario = scenario_for(default_kind(ghost), n0=24, k=3, seed=2013)
        with pytest.raises(LookupError, match="ghost-algorithm"):
            predict(ghost, scenario)


class TestArgminBound:
    def test_alpha_minimises_algorithm1_rounds(self):
        best, value = argmin_bound(
            "algorithm1", "rounds", vary={"alpha": range(1, 9)},
            n=100, k=8, theta=30, L=2, T=18,
        )
        assert best["alpha"] == 8
        env = ENVELOPES["algorithm1"]
        assert value == evaluate(
            env.rounds, {"n": 100, "k": 8, "theta": 30, "L": 2, "T": 18,
                         "alpha": 8})

    def test_unevaluable_grid_raises(self):
        with pytest.raises(ValueError):
            # theta is never bound, so no grid point evaluates
            argmin_bound("algorithm1", "rounds",
                         vary={"alpha": range(1, 4)}, n=100, k=8, T=18)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="pick rounds"):
            argmin_bound("algorithm1", "latency", vary={"alpha": [1]}, n=10)


class TestValidateModel:
    def test_registry_sweep_stays_inside_table2_envelopes(self):
        """Acceptance: every registered spec, on its benign scenario
        family, measures inside its analytical envelope."""
        rows = validate_model(n0=24, k=3)
        assert len(rows) == len(list(all_specs()))
        assert failures(rows) == []
        assert all(row["within"] is True for row in rows)

    def test_adversarial_rows_report_floor_without_gating(self):
        rows = validate_model(n0=24, k=3, include_adversarial=True)
        adv = [r for r in rows if r["family"] == "adversarial"]
        assert adv, "no spec qualified for the adversarial sweep"
        assert all(r["within"] is None for r in adv)
        floored = [r for r in adv if "rounds_floor" in r]
        assert floored and all("floor_note" in r for r in floored)

    def test_rows_carry_role_and_provenance_columns(self):
        rows = validate_model(n0=24, k=3, algorithms=["algorithm1"])
        (row,) = rows
        assert row["role_tokens"] and all(
            isinstance(v, int) for v in row["role_tokens"].values())
        assert row["last_learn_round"] <= row["rounds"]

    def test_table_rows_flatten_for_formatters(self):
        rows = validate_model(n0=24, k=3, algorithms=["algorithm1"])
        (flat,) = table_rows(rows)
        assert flat["within"] == "yes"
        assert not any(isinstance(v, dict) for v in flat.values())


class TestRatioTableCodec:
    def test_round_trip(self, tmp_path):
        rows = validate_model(n0=24, k=3, algorithms=["flood-new"])
        path = tmp_path / "ratios.json"
        io.save_ratio_table(rows, path, meta={"n0": 24, "k": 3})
        loaded = io.load_ratio_table(path)
        assert loaded == [dict(r) for r in rows]

    def test_format_field_is_enforced(self):
        with pytest.raises(ValueError):
            io.ratio_table_from_dict({"format": "repro-run", "rows": []})
        with pytest.raises(ValueError):
            io.ratio_table_from_dict(
                {"format": "repro-envelope-ratios", "rows": None})

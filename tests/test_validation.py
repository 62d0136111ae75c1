"""Tests for the lemma/theorem validators — the theory checked empirically."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import hinet_interval_scenario, hinet_one_scenario
from repro.experiments.validation import (
    check_comm_budget,
    check_lemma2,
    check_theorem1,
    check_theorem2,
    check_theorem3,
)


def _scenario(seed=1, **kw):
    defaults = dict(n0=30, theta=8, k=3, alpha=2, L=2, churn_p=0.0,
                    reaffiliation_p=0.1)
    defaults.update(kw)
    return hinet_interval_scenario(seed=seed, **defaults)


class TestLemma2:
    def test_all_premise_instances_satisfied(self):
        records = check_lemma2(_scenario())
        assert records, "lemma premise never triggered"
        violations = [r for r in records if not r.satisfied]
        assert not violations, violations[:5]

    def test_strict_mode_also_satisfies(self):
        records = check_lemma2(_scenario(seed=2), strict=True)
        assert records and all(r.satisfied for r in records)

    def test_saturation_handled(self):
        """Once every head knows a token, the requirement degrades to 0."""
        records = check_lemma2(_scenario(seed=3))
        late = [r for r in records if r.heads_before == 8]
        for r in late:
            assert r.required == 0 and r.satisfied

    def test_progress_monotone_over_phases(self):
        records = check_lemma2(_scenario(seed=4))
        by_token = {}
        for r in records:
            by_token.setdefault(r.token, []).append(r)
        for recs in by_token.values():
            recs.sort(key=lambda r: r.phase)
            counts = [r.heads_before for r in recs]
            assert counts == sorted(counts)

    @pytest.mark.parametrize("seed, strict", [(1, False), (2, True),
                                              (3, False), (4, False)])
    def test_lemma2_records_golden(self, seed, strict):
        """The measured records for the seeds above, pinned exactly:
        (phase, token, heads_before, heads_after, required, satisfied)."""
        records = check_lemma2(_scenario(seed=seed), strict=strict)
        got = [(r.phase, r.token, r.heads_before, r.heads_after, r.required,
                r.satisfied) for r in records]
        assert got == (LEMMA2_SEED1 if seed == 1 else LEMMA2_SEEDS_2_TO_4)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 3000))
    def test_lemma2_randomised(self, seed):
        records = check_lemma2(_scenario(seed=seed, reaffiliation_p=0.3))
        assert all(r.satisfied for r in records)


class TestTheorems:
    def test_theorem1_holds(self):
        out = check_theorem1(_scenario(seed=5))
        assert out["holds"]
        assert out["completion_round"] <= out["bound_rounds"]

    def test_theorem2_holds(self):
        scenario = hinet_one_scenario(n0=24, theta=6, k=3, L=2, seed=5)
        out = check_theorem2(scenario)
        assert out["holds"]
        assert out["bound_rounds"] == 23

    def test_theorem3_holds_in_interval_reading(self):
        """(αL)-interval head connectivity ⇒ (⌈θ/α⌉+1)·αL rounds for
        Algorithm 2 — the consistent-with-proof reading of Theorem 3 (the
        literal "rounds" statement is physically impossible; see the
        validator docstring and EXPERIMENTS.md errata)."""
        from repro.graphs.generators.hinet import HiNetParams, generate_hinet
        from repro.experiments.scenarios import Scenario
        from repro.sim.messages import initial_assignment

        alpha, L, theta, n0, k = 2, 2, 6, 24, 3
        T = alpha * L
        intervals = theta // alpha + 1
        scen = generate_hinet(
            HiNetParams(n=n0, theta=theta, num_heads=theta, T=T,
                        phases=intervals + 1, L=L, reaffiliation_p=0.1,
                        churn_p=0.0),
            seed=7,
        )
        scenario = Scenario(
            name="theorem3", trace=scen.trace, k=k,
            initial=initial_assignment(k, n0, mode="spread"),
            params={"T": T, "L": L, "theta": theta, "alpha": alpha},
        )
        out = check_theorem3(scenario, theta=theta, alpha=alpha, L=L)
        assert out["holds"], out
        assert out["bound_rounds"] == intervals * alpha * L
        # document the gap to the literal statement
        assert out["paper_literal_rounds"] < out["completion_round"]

    def test_comm_budget_holds(self):
        """Measured Algorithm-1 tokens stay within the Table 2 bill
        (plus the initial-upload allowance)."""
        out = check_comm_budget(_scenario(seed=8))
        assert out["holds"], out
        assert out["measured"] <= out["allowance"]

    def test_comm_budget_strict_mode(self):
        out = check_comm_budget(_scenario(seed=9), strict=True)
        assert out["holds"], out


#: ``check_lemma2`` records of ``_scenario(seed=1)``.
LEMMA2_SEED1 = [
    (0, 0, 1, 4, 2, True),
    (0, 1, 0, 5, 2, True),
    (0, 2, 0, 6, 2, True),
    (1, 0, 4, 8, 2, True),
    (1, 1, 5, 8, 2, True),
    (1, 2, 6, 8, 2, True),
    (2, 0, 8, 8, 0, True),
    (2, 1, 8, 8, 0, True),
    (2, 2, 8, 8, 0, True),
    (3, 0, 8, 8, 0, True),
    (3, 1, 8, 8, 0, True),
    (3, 2, 8, 8, 0, True),
    (4, 0, 8, 8, 0, True),
    (4, 1, 8, 8, 0, True),
    (4, 2, 8, 8, 0, True),
]

#: ... of seeds 2 (strict), 3 and 4, which measure identically.
LEMMA2_SEEDS_2_TO_4 = [
    (0, 0, 0, 5, 2, True),
    (0, 1, 0, 6, 2, True),
    (0, 2, 1, 4, 2, True),
    (1, 0, 5, 8, 2, True),
    (1, 1, 6, 8, 2, True),
    (1, 2, 4, 6, 2, True),
    (2, 0, 8, 8, 0, True),
    (2, 1, 8, 8, 0, True),
    (2, 2, 6, 8, 2, True),
    (3, 0, 8, 8, 0, True),
    (3, 1, 8, 8, 0, True),
    (3, 2, 8, 8, 0, True),
    (4, 0, 8, 8, 0, True),
    (4, 1, 8, 8, 0, True),
    (4, 2, 8, 8, 0, True),
]

"""Tests for multi-seed replication statistics."""

import pytest

from repro.experiments.replication import replicate, summarize


class TestSummarize:
    def test_single_value(self):
        s = summarize([4.0])
        assert s.mean == 4.0 and s.std == 0.0 and s.ci95_half_width == 0.0
        assert s.n == 1

    def test_known_sample(self):
        s = summarize([2.0, 4.0, 6.0])
        assert s.mean == pytest.approx(4.0)
        assert s.std == pytest.approx(2.0)
        assert s.minimum == 2.0 and s.maximum == 6.0
        # t(0.975, df=2) = 4.303 -> half width 4.303 * 2 / sqrt(3)
        assert s.ci95_half_width == pytest.approx(4.303 * 2 / 3**0.5, rel=1e-3)

    def test_ci_contains_mean(self):
        s = summarize([1, 2, 3, 4, 5])
        lo, hi = s.ci95
        assert lo < s.mean < hi

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str(self):
        assert "±" in str(summarize([1.0, 2.0]))

    def test_large_sample_uses_normal_quantile(self):
        s = summarize(list(range(100)))
        assert s.n == 100
        assert s.ci95_half_width > 0


class TestReplicate:
    def test_aggregates_metrics(self):
        def exp(seed):
            return {"value": float(seed) % 7, "flag": True, "name": "x"}

        out = replicate(exp, seeds=[1, 2, 3, 4])
        assert set(out) == {"value"}  # non-numeric and bools dropped
        assert out["value"].n == 4

    def test_derived_seeds_deterministic(self):
        calls_a, calls_b = [], []

        def exp_a(seed):
            calls_a.append(seed)
            return {"v": 1.0}

        def exp_b(seed):
            calls_b.append(seed)
            return {"v": 1.0}

        replicate(exp_a, replications=3, base_seed=5)
        replicate(exp_b, replications=3, base_seed=5)
        assert calls_a == calls_b
        assert len(set(calls_a)) == 3

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: {"v": 1.0}, seeds=[])

    def test_real_experiment_replication(self):
        """End-to-end: the HiNet/KLO comm ratio is stably > 1 across seeds."""
        from repro.experiments.runner import execute
        from repro.experiments.scenarios import hinet_interval_scenario

        def exp(seed):
            s = hinet_interval_scenario(n0=40, theta=12, k=3, alpha=3, L=2,
                                        seed=seed, verify=False)
            ours = execute("algorithm1", s)
            theirs = execute("klo-interval", s)
            return {
                "ratio": theirs.tokens_sent / max(ours.tokens_sent, 1),
                "complete": ours.complete and theirs.complete,
            }

        out = replicate(exp, replications=5, base_seed=11)
        assert out["ratio"].minimum > 1.0

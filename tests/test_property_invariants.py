"""Cross-cutting hypothesis property tests on library invariants.

These complement the per-module tests with properties that hold across
components: engine conservation laws, serialization round-trips on
arbitrary generated traces, window coverage, and cost-accounting
identities.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.flooding import make_flood_all_factory
from repro.graphs.generators.hinet import HiNetParams, generate_hinet
from repro.graphs.generators.interval import t_interval_trace
from repro.graphs.properties import windows_of
from repro.io import trace_from_dict, trace_to_dict
from repro.sim.engine import run
from repro.sim.messages import initial_assignment
from repro.viz import sparkline

#: Nightly CI deepens every sweep (REPRO_HYPOTHESIS_SCALE=8); default 1.
_SCALE = int(os.environ.get("REPRO_HYPOTHESIS_SCALE", "1"))


class TestEngineConservation:
    @settings(max_examples=15 * _SCALE, deadline=None)
    @given(seed=st.integers(0, 2000), n=st.integers(2, 20), k=st.integers(1, 6))
    def test_coverage_monotone_and_token_conservation(self, seed, n, k):
        """For absorb-only algorithms: (1) coverage never decreases;
        (2) tokens are never created — every output token was in some
        input; (3) inputs are never lost."""
        trace = t_interval_trace(n, T=2, rounds=2 * n, churn_p=0.1, seed=seed)
        init = initial_assignment(k, n, mode="spread")
        res = run(trace, make_flood_all_factory(), k=k, initial=init,
                  max_rounds=2 * n, stop_when_complete=True)
        cov = res.metrics.per_round_coverage
        assert cov == sorted(cov)
        universe = frozenset(range(k))
        all_inputs = frozenset().union(*init.values()) if init else frozenset()
        for v, out in res.outputs.items():
            assert out <= universe
            assert frozenset(init.get(v, frozenset())) <= out
        assert frozenset().union(*res.outputs.values()) <= all_inputs

    @settings(max_examples=15 * _SCALE, deadline=None)
    @given(seed=st.integers(0, 2000), n=st.integers(2, 16))
    def test_cost_identities(self, seed, n):
        """messages = broadcasts + unicasts; per-round tokens sum to total."""
        trace = t_interval_trace(n, T=2, rounds=n, churn_p=0.1, seed=seed)
        res = run(trace, make_flood_all_factory(), k=2,
                  initial=initial_assignment(2, n, mode="spread"),
                  max_rounds=n, stop_when_complete=True)
        m = res.metrics
        assert m.messages_sent == m.broadcasts + m.unicasts
        assert sum(m.per_round_tokens) == m.tokens_sent
        assert sum(c.tokens for c in m.by_role.values()) == m.tokens_sent
        assert len(m.per_round_tokens) == m.rounds


class TestSerializationProperty:
    @settings(max_examples=10 * _SCALE, deadline=None)
    @given(seed=st.integers(0, 1000), T=st.integers(1, 4),
           heads=st.integers(1, 4))
    def test_roundtrip_any_generated_hinet(self, seed, T, heads):
        trace = generate_hinet(
            HiNetParams(n=14, theta=heads, num_heads=heads, T=T, phases=2,
                        L=2, reaffiliation_p=0.3, churn_p=0.1),
            seed=seed,
        ).trace
        back = trace_from_dict(trace_to_dict(trace))
        assert back.horizon == trace.horizon
        for r in range(trace.horizon):
            a, b = trace.snapshot(r), back.snapshot(r)
            assert a.edge_set() == b.edge_set()
            assert a.roles == b.roles and a.head_of == b.head_of


class TestWindowCoverage:
    @given(horizon=st.integers(1, 50), T=st.integers(1, 50))
    def test_blocks_partition_horizon(self, horizon, T):
        """Aligned blocks exactly tile [0, horizon) without overlap."""
        covered = []
        for start, stop in windows_of(horizon, T, "blocks"):
            assert start < stop
            covered.extend(range(start, stop))
        assert covered == list(range(horizon))

    @given(horizon=st.integers(1, 50), T=st.integers(1, 50))
    def test_sliding_windows_well_formed(self, horizon, T):
        wins = list(windows_of(horizon, T, "sliding"))
        assert wins[0][0] == 0
        assert wins[-1][1] == horizon
        for (s1, e1), (s2, e2) in zip(wins, wins[1:]):
            assert s2 == s1 + 1 and e2 == e1 + 1


class TestSparklineProperty:
    @given(vals=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
           width=st.integers(1, 50))
    def test_length_bounded_by_width(self, vals, width):
        s = sparkline(vals, width=width)
        assert 1 <= len(s) <= max(width, len(vals) if len(vals) <= width else width)

    @given(vals=st.lists(st.floats(-100, 100), min_size=1, max_size=60))
    def test_chars_from_bar_alphabet(self, vals):
        assert set(sparkline(vals)) <= set("▁▂▃▄▅▆▇█")

"""Tests for the aggregation family: push-sum, extrema flooding, exact."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.exact import aggregate_exact
from repro.aggregation.minmax import make_extremum_factory
from repro.aggregation.pushsum import make_pushsum_factory
from repro.experiments.scenarios import hinet_one_scenario
from repro.graphs.generators.static import complete_graph, path_graph, static_trace
from repro.graphs.generators.worstcase import shuffled_path_trace
from repro.sim.engine import run


def _values(n, spread=10.0):
    return {v: float(v) * spread / max(n - 1, 1) for v in range(n)}


class TestPushSum:
    def _run(self, trace, n, values, rounds, seed=1):
        return run(trace, make_pushsum_factory(values, seed=seed), k=0,
                   initial={}, max_rounds=rounds, stop_when_finished=False)

    def test_converges_on_complete_graph(self):
        n = 16
        values = _values(n)
        truth = sum(values.values()) / n
        trace = static_trace(complete_graph(n), rounds=100)
        res = self._run(trace, n, values, rounds=100)
        estimates = [a.estimate for a in res.algorithms.values()]
        assert max(abs(e - truth) for e in estimates) < 1e-6

    def test_converges_on_dynamic_graph(self):
        n = 12
        values = _values(n)
        truth = sum(values.values()) / n
        trace = shuffled_path_trace(n, rounds=400, seed=3)
        res = self._run(trace, n, values, rounds=400, seed=3)
        estimates = [a.estimate for a in res.algorithms.values()]
        assert max(abs(e - truth) for e in estimates) < 1e-3

    def test_mass_conservation(self):
        n = 10
        values = _values(n)
        trace = static_trace(complete_graph(n), rounds=50)
        res = self._run(trace, n, values, rounds=50)
        algs = res.algorithms.values()
        assert sum(a.s for a in algs) == pytest.approx(sum(values.values()))
        assert sum(a.w for a in algs) == pytest.approx(n)

    def test_weights_positive(self):
        n = 8
        trace = static_trace(complete_graph(n), rounds=200)
        res = self._run(trace, n, _values(n), rounds=200)
        assert all(a.w > 0 for a in res.algorithms.values())

    def test_reproducible(self):
        n = 8
        trace = static_trace(complete_graph(n), rounds=30)
        a = self._run(trace, n, _values(n), rounds=30, seed=7)
        b = self._run(trace, n, _values(n), rounds=30, seed=7)
        ea = [x.estimate for x in a.algorithms.values()]
        eb = [x.estimate for x in b.algorithms.values()]
        assert ea == eb

    def test_cost_is_one_per_node_round(self):
        n = 9
        trace = static_trace(complete_graph(n), rounds=20)
        res = self._run(trace, n, _values(n), rounds=20)
        assert res.metrics.tokens_sent == n * 20

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_conservation_random_dynamics(self, seed):
        n = 8
        values = _values(n)
        trace = shuffled_path_trace(n, rounds=30, seed=seed)
        res = self._run(trace, n, values, rounds=30, seed=seed)
        assert sum(a.s for a in res.algorithms.values()) == pytest.approx(
            sum(values.values())
        )


class TestExtremum:
    def test_min_exact_on_static(self):
        n = 10
        values = {v: float((v * 7) % n) for v in range(n)}
        trace = static_trace(path_graph(n), rounds=2 * n)
        res = run(trace, make_extremum_factory(values, op=min), k=0,
                  initial={}, max_rounds=2 * n, stop_when_finished=False)
        assert all(a.best == 0.0 for a in res.algorithms.values())

    def test_max_exact_on_dynamic_with_repetition(self):
        n = 14
        values = {v: float(v) for v in range(n)}
        trace = shuffled_path_trace(n, rounds=n - 1, seed=5)
        res = run(trace, make_extremum_factory(values, op=max, rounds=n - 1),
                  k=0, initial={}, max_rounds=n - 1, stop_when_finished=False)
        assert all(a.best == float(n - 1) for a in res.algorithms.values())

    def test_improvement_only_cheaper_on_static(self):
        n = 12
        values = {v: float(v) for v in range(n)}
        trace = static_trace(path_graph(n), rounds=3 * n)
        lazy = run(trace, make_extremum_factory(values, repeat=False), k=0,
                   initial={}, max_rounds=3 * n, stop_when_finished=False)
        eager = run(trace, make_extremum_factory(values, rounds=3 * n), k=0,
                    initial={}, max_rounds=3 * n, stop_when_finished=False)
        assert all(a.best == 0.0 for a in lazy.algorithms.values())
        assert lazy.metrics.tokens_sent < eager.metrics.tokens_sent

    def test_improvement_only_can_miss_on_dynamics(self):
        """The epidemic-style failure: min holder broadcasts once on an
        edge schedule that hides its eventual audience."""
        from repro.sim.topology import GraphTrace, Snapshot

        rounds = [[(0, 1)], [(0, 1)], [(1, 2)]]
        trace = GraphTrace([Snapshot.from_edges(3, e) for e in rounds])
        values = {0: -5.0, 1: 1.0, 2: 2.0}
        lazy = run(trace, make_extremum_factory(values, repeat=False), k=0,
                   initial={}, max_rounds=3, stop_when_finished=False)
        # node 1 learned -5, but had already gone quiet for it when edge
        # (1,2) appeared? No: learning sets _dirty, so 1 rebroadcasts once
        # at round 1 (to 0 only), then stays quiet; node 2 never hears it.
        assert lazy.algorithms[2].best == 2.0  # missed the minimum
        eager = run(trace, make_extremum_factory(values), k=0,
                    initial={}, max_rounds=3, stop_when_finished=False)
        assert eager.algorithms[2].best == -5.0


class TestExactAggregation:
    @pytest.fixture(scope="class")
    def scenario(self):
        return hinet_one_scenario(n0=20, theta=6, k=1, L=2, seed=13)

    def test_sum_exact_hierarchical(self, scenario):
        values = _values(20)
        out = aggregate_exact(scenario.trace, values, fold=sum)
        assert out.exact
        assert all(r == pytest.approx(out.truth) for r in out.results.values())

    def test_flat_variant_exact_but_dearer(self, scenario):
        values = _values(20)
        hier = aggregate_exact(scenario.trace, values, hierarchical=True)
        flat = aggregate_exact(scenario.trace, values, hierarchical=False)
        assert hier.exact and flat.exact
        assert hier.tokens_sent < flat.tokens_sent

    def test_custom_fold(self, scenario):
        values = {v: 1.0 for v in range(20)}
        out = aggregate_exact(scenario.trace, values, fold=len)
        assert out.truth == 20
        assert all(r == 20 for r in out.results.values())

    def test_insufficient_rounds_not_exact(self, scenario):
        out = aggregate_exact(scenario.trace, _values(20), rounds=1)
        assert not out.exact

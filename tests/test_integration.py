"""Cross-module integration tests: the full realistic pipeline
mobility → unit disk → clustering maintenance → dissemination, plus
algorithm-vs-algorithm comparisons on shared scenarios."""

import pytest

from repro.baselines.klo import make_klo_one_factory
from repro.clustering.maintenance import maintain_clustering
from repro.clustering.stats import hierarchy_stats
from repro.core.algorithm2 import make_algorithm2_factory
from repro.core.analysis import CostParams, hinet_one_comm, klo_one_comm
from repro.experiments.runner import execute
from repro.experiments.scenarios import hinet_interval_scenario
from repro.graphs.properties import is_T_interval_connected
from repro.mobility.field import Field
from repro.mobility.unitdisk import unit_disk_trace
from repro.mobility.waypoint import RandomWaypoint
from repro.sim.engine import run
from repro.sim.messages import initial_assignment


class TestMobilePipeline:
    """The end-to-end MANET workload the paper's introduction motivates."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        n, k, rounds = 30, 4, 60
        field = Field(400, 400)
        traj = RandomWaypoint(n=n, field=field, v_min=10, v_max=40, seed=8).run(rounds)
        flat = unit_disk_trace(traj, radius=120, ensure_connected=True)
        clustered, stats = maintain_clustering(flat)
        return n, k, clustered, stats

    def test_clustered_trace_valid(self, pipeline):
        n, k, clustered, stats = pipeline
        clustered.validate_hierarchy()
        assert is_T_interval_connected(clustered, 1)

    def test_algorithm2_completes_on_real_mobility(self, pipeline):
        n, k, clustered, stats = pipeline
        M = clustered.horizon
        res = run(clustered, make_algorithm2_factory(M=M), k=k,
                  initial=initial_assignment(k, n, mode="spread"),
                  max_rounds=M, stop_when_complete=True)
        assert res.complete

    def test_algorithm2_cheaper_than_klo_on_same_mobility(self, pipeline):
        n, k, clustered, stats = pipeline
        M = clustered.horizon
        init = initial_assignment(k, n, mode="spread")
        ours = run(clustered, make_algorithm2_factory(M=M), k=k,
                   initial=init, max_rounds=M)
        theirs = run(clustered, make_klo_one_factory(M=M), k=k,
                     initial=init, max_rounds=M)
        assert ours.complete and theirs.complete
        assert ours.metrics.tokens_sent < theirs.metrics.tokens_sent

    def test_empirical_stats_feed_cost_model(self, pipeline):
        n, k, clustered, stats = pipeline
        hs = hierarchy_stats(clustered)
        params = CostParams(
            n0=n, theta=hs.theta, nm=hs.mean_members,
            nr=hs.mean_reaffiliations, k=k, alpha=1,
            L=max(hs.hop_bound_L or 1, 1),
        )
        # the model's qualitative claim must hold on empirical parameters
        # whenever members exist and churn is below the saving threshold
        if params.nm > 0 and params.nr < params.n0 - 1:
            assert hinet_one_comm(params) < klo_one_comm(params)


class TestSharedScenarioComparison:
    def test_paper_headline_2x_saving_at_table3_scale(self):
        """At the paper's own scale the measured communication saving
        should be roughly the claimed ~2x (we accept >= 1.5x)."""
        scenario = hinet_interval_scenario(
            n0=100, theta=30, k=8, alpha=5, L=2, seed=99,
        )
        ours = execute("algorithm1", scenario)
        theirs = execute("klo-interval", scenario)
        assert ours.complete and theirs.complete
        ratio = theirs.tokens_sent / ours.tokens_sent
        assert ratio >= 1.5, f"saving only {ratio:.2f}x"

    def test_time_cost_similar_or_better(self):
        scenario = hinet_interval_scenario(
            n0=100, theta=30, k=8, alpha=5, L=2, seed=99,
        )
        ours = execute("algorithm1", scenario)
        theirs = execute("klo-interval", scenario)
        # Table 3: 126 vs 180 analytic; measured completion should not be
        # dramatically worse for HiNet (allow 2x slack for stochastics)
        assert ours.completion_round <= 2 * theirs.completion_round

    def test_strict_and_loose_member_modes_agree_on_completion(self):
        scenario = hinet_interval_scenario(
            n0=50, theta=15, k=4, alpha=3, L=2, seed=21, churn_p=0.0,
        )
        loose = execute("algorithm1", scenario, strict=False)
        strict = execute("algorithm1", scenario, strict=True)
        assert loose.complete and strict.complete
        # identical sends in both modes (receiving more never adds sends
        # for heads... members may send fewer in loose mode), so:
        assert loose.tokens_sent <= strict.tokens_sent

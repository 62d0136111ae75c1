"""Engine-level checks of the ``engine="fast"`` tier.

The reference-vs-fast case grid (``CASES`` x ``SEEDS``) and its helpers
are defined once, in ``test_columnar.py``; this module reuses them. Its
grid runs at ``obs="record"`` and ``obs="trace"`` with the default
monitors, so the recording, causal trace and violations compared by
``assert_matches_reference`` are non-empty here, where the default
``obs="timeline"`` grid of ``test_columnar.py`` leaves them ``None``.
"""

import pytest

from repro.baselines.flooding import make_flood_all_factory
from repro.baselines.gossip import make_gossip_factory
from repro.obs.monitors import default_monitors
from repro.sim.engine import SynchronousEngine

from .test_columnar import CASES, SEEDS, _case_id, _flat, assert_matches_reference


class TestEquivalence:
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, case, seed):
        name, scen_fn, fac_fn, max_rounds = case
        scenario = scen_fn(seed)
        for obs in ("record", "trace"):
            vec = assert_matches_reference(
                scenario, fac_fn(scenario), max_rounds,
                monitors=default_monitors, obs=obs,
            )
            assert vec.violations is not None
            if obs == "record":
                assert vec.recording is not None
            else:
                assert vec.causal_trace is not None

    def test_stop_when_complete(self):
        # at the default obs level; test_columnar.py covers obs="record"
        scenario = _flat(4)
        factory = make_flood_all_factory()
        fast, ref = (
            SynchronousEngine(engine=engine).run(
                scenario.trace, factory, scenario.k, scenario.initial, 40,
                stop_when_complete=True,
            )
            for engine in ("fast", "reference")
        )
        assert fast.metrics.rounds == ref.metrics.rounds < 40
        assert fast.metrics == ref.metrics
        assert fast.timeline == ref.timeline
        assert fast.outputs == ref.outputs


class TestDispatch:
    def test_untagged_factory_falls_back(self):
        # an untagged factory runs on the reference path whatever the
        # obs level, and its result equals a plain reference run
        scenario = _flat(3)
        factory = make_gossip_factory(seed=1)
        assert not hasattr(factory, "fastpath")
        for obs in ("off", "record"):
            fast, ref = (
                SynchronousEngine(engine=engine, obs=obs).run(
                    scenario.trace, factory, scenario.k, scenario.initial, 10
                )
                for engine in ("fast", "reference")
            )
            # reference path ran: per-node objects are present
            assert fast.algorithms is not None
            assert fast.outputs == ref.outputs
            assert fast.metrics == ref.metrics

    def test_invalid_engine_mode_rejected(self):
        for name in ("warp", "FAST", ""):
            with pytest.raises(ValueError, match="engine"):
                SynchronousEngine(engine=name)
        # the legacy tier name still constructs the fast engine
        assert SynchronousEngine(engine="columnar").engine_mode == "fast"


class TestWideTokenSets:
    def test_more_than_64_tokens(self):
        # k > 64 exercises the multi-word bitset rows at the default obs
        # level; test_columnar.py covers obs="record" and obs="trace"
        n, k = 20, 130
        scenario = _flat(8, n0=n, k=4)  # topology only; assignment built here
        initial = {v: frozenset(range(v * 7, min(v * 7 + 7, k))) for v in range(n)}
        factory = make_flood_all_factory()
        fast, ref = (
            SynchronousEngine(engine=engine).run(
                scenario.trace, factory, k, initial, 25
            )
            for engine in ("fast", "reference")
        )
        assert fast.complete == ref.complete
        assert fast.outputs == ref.outputs
        assert fast.metrics == ref.metrics
        assert fast.timeline == ref.timeline

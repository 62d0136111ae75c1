"""Pinned ``RunRecording.fingerprint()`` values.

The fingerprint hashes the ``repr`` of every round's
:class:`~repro.obs.RoundDelta` view, so any change to what a recording
holds, to its canonical order, or to how the view is built from the
stored layout changes these hex values.  Both engine tiers must give the
pinned value, with no link model, under i.i.d. loss and under latency 2.
"""

import pytest

from repro.experiments.scenarios import default_kind, scenario_for
from repro.registry import get_spec
from repro.sim.engine import SynchronousEngine
from repro.sim.linkmodel import IidLoss

#: ``(spec, link configuration) -> fingerprint`` on
#: ``scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=5)``.
FINGERPRINTS = {
    ("algorithm1", "none"):
        "9868e703df87b9b23f70909c5bdc51db10e88f91bd85409321a254c33787febb",
    ("algorithm2", "none"):
        "3e9a150b69e7dc6bf8d9d6f9596f39a8ad23b76a384c86b10853d483a29b13f9",
    ("klo-one", "none"):
        "6b6ff0ef1e81d82d309e88fffcf51060eae4dd5e828d0201e2be3938c57dec0b",
    ("flood-all", "none"):
        "552e89acf3cdf30319cb781a4ddcc48091ff1c241fc40a2c85ac94c89f889a4f",
    ("algorithm2", "iid"):
        "6b31de3cb30ad0bd17b5cf63e987d268f4c1a7edb70a4a533f077ecc3908b5be",
    ("algorithm2", "latency2"):
        "db6adde4c440e731267834831e40adfc80e9d3492ca0f1820abead258adc034a",
}

LINKS = {
    "none": {},
    "iid": {"link": IidLoss(0.2, seed=3)},
    "latency2": {"latency": 2},
}


def _recording(name, link, engine):
    spec = get_spec(name)
    scenario = scenario_for(default_kind(spec), n0=24, theta=7, k=3, seed=5)
    plan = spec.plan(scenario)
    return SynchronousEngine(engine=engine, obs="record", **LINKS[link]).run(
        scenario.trace, plan.factory, scenario.k, scenario.initial,
        plan.max_rounds, stop_when_complete=plan.stop_when_complete,
    ).recording


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("name, link", sorted(FINGERPRINTS))
def test_fingerprint_pinned(name, link, engine):
    assert _recording(name, link, engine).fingerprint() == \
        FINGERPRINTS[name, link]

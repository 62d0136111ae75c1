"""Per-round invariants of the paper's algorithms, checked via stepping.

The unit tests pin individual rules; these run whole executions through
the stepping API and assert structural invariants at *every* round —
the closest a test can get to the pseudo-code's loop invariants.  Send
invariants read the run's recorded message log and per-round roles
(``obs="record"``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm1 import make_algorithm1_factory
from repro.core.algorithm2 import make_algorithm2_factory
from repro.core.bounds import algorithm1_phases
from repro.experiments.scenarios import hinet_interval_scenario, hinet_one_scenario
from repro.roles import Role
from repro.sim.engine import SynchronousEngine


def _stepped(scenario, factory, max_rounds):
    engine = SynchronousEngine(obs="record")
    active = engine.start(
        scenario.trace, factory, k=scenario.k, initial=scenario.initial,
        max_rounds=max_rounds,
    )
    return active


class TestAlgorithm1Invariants:
    def _active(self, seed=1):
        scenario = hinet_interval_scenario(
            n0=24, theta=6, k=3, alpha=2, L=2, seed=seed, churn_p=0.0,
        )
        T = int(scenario.params["T"])
        M = algorithm1_phases(6, 2)
        return scenario, _stepped(
            scenario, make_algorithm1_factory(T=T, M=M), M * T
        ), T

    def test_state_inclusion_invariants(self):
        scenario, active, T = self._active()
        while active.step():
            for alg in active.algorithms.values():
                # Fig. 4 invariants: sent sets never outrun knowledge
                assert alg.TS <= alg.TA
                assert alg.TR <= alg.TA

    def test_message_discipline(self):
        """Members only unicast (to their head); heads/gateways only
        broadcast; every transmission carries exactly one token."""
        scenario, active, T = self._active(seed=2)
        active.run_to_completion()
        for r, delta in enumerate(active.finish().recording.rounds):
            snap = scenario.trace.snapshot(r)
            for msg in delta.messages:
                assert len(msg.tokens) == 1
                if delta.roles[msg.sender] == Role.MEMBER.value:
                    assert msg.kind == "u"
                    assert msg.dest == snap.head(msg.sender)
                else:
                    assert msg.kind == "b"

    def test_no_duplicate_broadcast_within_phase(self):
        """A head/gateway never broadcasts the same token twice in one
        phase (TS dedup), though it may re-broadcast across phases."""
        scenario, active, T = self._active(seed=3)
        active.run_to_completion()
        sent: dict = {}
        for r, delta in enumerate(active.finish().recording.rounds):
            phase = r // T
            for msg in delta.messages:
                if msg.kind == "b":
                    key = (phase, msg.sender, msg.tokens[0])
                    assert key not in sent, key
                    sent[key] = True

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2000))
    def test_invariants_randomised(self, seed):
        scenario, active, T = self._active(seed=seed)
        while active.step():
            for alg in active.algorithms.values():
                assert alg.TS <= alg.TA


class TestAlgorithm2Invariants:
    def test_member_uploads_bounded_by_head_changes(self):
        """Each member unicasts exactly once per (initial + head change):
        the Figure 5 'send TA once per head' rule, per node."""
        scenario = hinet_one_scenario(
            n0=20, theta=6, k=3, L=2, seed=4, reaffiliation_p=0.4,
        )
        M = 19
        active = _stepped(scenario, make_algorithm2_factory(M=M), M)
        active.run_to_completion()
        # count per-member uploads and per-member observed head changes
        uploads: dict = {}
        for delta in active.finish().recording.rounds:
            for msg in delta.messages:
                if delta.roles[msg.sender] == Role.MEMBER.value and msg.kind == "u":
                    uploads[msg.sender] = uploads.get(msg.sender, 0) + 1
        for v, count in uploads.items():
            changes = 0
            prev = None
            for r in range(M):
                head = scenario.trace.snapshot(r).head(v)
                role = scenario.trace.snapshot(r).role(v)
                if role is Role.MEMBER:
                    if prev is None or head != prev:
                        changes += 1
                prev = head
            assert count <= changes + 1, (v, count, changes)

    def test_heads_broadcast_full_TA(self):
        scenario = hinet_one_scenario(n0=16, theta=4, k=2, L=2, seed=5)
        M = 15
        active = _stepped(scenario, make_algorithm2_factory(M=M), M)
        active.run_to_completion()
        for delta in active.finish().recording.rounds:
            for msg in delta.messages:
                if delta.roles[msg.sender] != Role.MEMBER.value:
                    sender_alg = active.algorithms[msg.sender]
                    # the broadcast is never larger than current knowledge
                    assert frozenset(msg.tokens) <= frozenset(sender_alg.TA)

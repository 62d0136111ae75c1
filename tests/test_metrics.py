"""Unit tests for repro.sim.metrics: the counters the engines keep in
``Metrics`` directly, and the send counters both engine tiers settle into
it from the run's send-count table (``repro.obs.observer.SendTable``)."""

import numpy as np

from repro.obs.observer import SendTable
from repro.sim.metrics import Metrics

HEAD, GATEWAY, MEMBER = 0, 1, 2


def _ids(*values):
    return np.array(values, dtype=np.int64)


def _settled(table):
    metrics = Metrics()
    table.settle(metrics)
    return metrics


class TestRecording:
    def test_tokens_and_messages_accumulate(self):
        table = SendTable()
        table.open(None)
        # node 0 broadcasts two tokens, node 1 unicasts one
        table.bill(_ids(0, 1), _ids(2, 1), unicasts=1, dropped=0)
        m = _settled(table)
        assert m.tokens_sent == 3
        assert m.messages_sent == 2
        assert m.broadcasts == 1
        assert m.unicasts == 1
        assert list(m.by_role) == ["flat"]

    def test_per_round_token_series(self):
        m = Metrics()
        table = SendTable()
        table.open(None)
        table.bill(_ids(0), _ids(1), 0, 0)
        m.end_round(coverage=5)
        table.open(None)  # a silent round
        m.end_round(coverage=5)
        table.open(None)
        table.bill(_ids(0), _ids(3), 0, 0)
        m.end_round(coverage=8)
        table.settle(m)
        assert m.per_round_tokens == [1, 0, 3]
        assert m.per_round_coverage == [5, 5, 8]
        assert m.rounds == len(m.per_round_tokens) == 3
        assert sum(m.per_round_tokens) == m.tokens_sent

    def test_role_attribution(self):
        table = SendTable()
        table.open(np.array([HEAD, MEMBER, HEAD]))
        table.bill(_ids(0, 1, 2), _ids(2, 1, 1), 0, 0)
        m = _settled(table)
        assert m.role_tokens("head") == 3
        assert m.role_tokens("member") == 1
        assert m.role_tokens("gateway") == 0
        assert m.by_role["head"].messages == 2

    def test_by_role_all_three_roles(self):
        table = SendTable()
        table.open(np.array([HEAD, MEMBER, MEMBER, MEMBER, GATEWAY, MEMBER]))
        # head 0 broadcasts, gateway 4 unicasts to 0 and broadcasts,
        # member 5 unicasts to 4
        table.bill(_ids(0, 4, 4, 5), _ids(3, 2, 1, 1), unicasts=2, dropped=0)
        m = _settled(table)
        assert set(m.by_role) == {"head", "gateway", "member"}
        assert m.role_tokens("head") == 3 and m.role_messages("head") == 1
        assert m.role_tokens("gateway") == 3 and m.role_messages("gateway") == 2
        assert m.role_tokens("member") == 1 and m.role_messages("member") == 1
        assert sum(c.tokens for c in m.by_role.values()) == m.tokens_sent
        assert sum(c.messages for c in m.by_role.values()) == m.messages_sent
        assert (m.broadcasts, m.unicasts) == (2, 2)

    def test_by_role_order_is_first_round_then_role_code(self):
        """Not the order nodes send in: gateway 0 sends before head 1 in
        round 0, and members first send in round 1."""
        roles = np.array([GATEWAY, HEAD, MEMBER])
        table = SendTable()
        table.open(roles)
        table.bill(_ids(0, 1), _ids(1, 1), 0, 0)
        table.open(roles)
        table.bill(_ids(2, 0), _ids(1, 1), 0, 0)
        table.open(None)
        table.bill(_ids(0), _ids(1), 0, 0)
        m = _settled(table)
        assert list(m.by_role) == ["head", "gateway", "member", "flat"]
        assert list(m.by_role) == list(table.timeline([0] * 3, [0] * 3).role_messages)

    def test_role_messages_unknown_role_is_zero(self):
        table = SendTable()
        table.open(np.array([HEAD]))
        table.bill(_ids(0), _ids(1), 0, 0)
        m = _settled(table)
        assert m.role_messages("gateway") == 0
        assert m.role_messages("flat") == 0

    def test_drops_counted(self):
        """A dropped unicast is counted, and still billed."""
        table = SendTable()
        table.open(None)
        table.bill(_ids(0, 1, 2), _ids(1, 2, 1), unicasts=3, dropped=2)
        m = _settled(table)
        assert m.dropped_unicasts == 2
        assert m.unicasts == 3 and m.messages_sent == 3
        assert m.tokens_sent == 4

    def test_settle_reflects_rounds_billed_since(self):
        """Settling again after more rounds replaces the send counters."""
        m = Metrics()
        table = SendTable()
        table.open(None)
        table.bill(_ids(0), _ids(2), 0, 0)
        table.settle(m)
        assert (m.tokens_sent, m.per_round_tokens) == (2, [2])
        table.open(None)
        table.bill(_ids(0, 1), _ids(1, 1), 1, 1)
        table.settle(m)
        assert (m.tokens_sent, m.per_round_tokens) == (4, [2, 2])
        assert (m.messages_sent, m.unicasts, m.dropped_unicasts) == (3, 1, 1)


class TestCompletion:
    def test_incomplete_by_default(self):
        m = Metrics()
        assert not m.complete
        assert m.completion_round is None

    def test_mark_complete_records_first_round_only(self):
        m = Metrics()
        m.end_round(coverage=1)
        m.mark_complete()
        m.end_round(coverage=1)
        m.mark_complete()  # should not overwrite
        assert m.completion_round == 1
        assert m.complete

    def test_summary_keys(self):
        m = Metrics()
        s = m.summary()
        assert set(s) == {
            "rounds", "completion_round", "tokens_sent", "messages_sent",
            "broadcasts", "unicasts", "dropped_unicasts", "lost_deliveries",
            "crashed_nodes",
        }

    def test_losses_counted(self):
        m = Metrics()
        m.record_loss()
        m.record_loss()
        assert m.lost_deliveries == 2
        m.record_loss(count=3)
        assert m.lost_deliveries == 5

    def test_crashes_counted(self):
        m = Metrics()
        m.record_crashes(2)
        m.record_crashes()
        assert m.crashed_nodes == 3
        assert m.summary()["crashed_nodes"] == 3

    def test_str_mentions_state(self):
        m = Metrics()
        assert "incomplete" in str(m)
        m.end_round(0); m.mark_complete()
        assert "complete@1" in str(m)

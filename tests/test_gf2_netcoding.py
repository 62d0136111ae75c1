"""Tests for GF(2) linear algebra and the network-coding baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gf2 import Gf2Basis
from repro.baselines.netcoding import NetworkCodingNode, make_netcoding_factory
from repro.graphs.generators.static import complete_graph, static_trace
from repro.graphs.generators.worstcase import shuffled_path_trace
from repro.sim.engine import run
from repro.sim.messages import Message, initial_assignment
from repro.sim.node import RoundContext


class TestGf2Basis:
    def test_rank_of_unit_vectors(self):
        b = Gf2Basis(4, rows=[0b0001, 0b0010, 0b0100])
        assert b.rank == 3
        assert not b.full_rank
        b.insert(0b1000)
        assert b.full_rank

    def test_dependent_insert_rejected(self):
        b = Gf2Basis(3, rows=[0b011, 0b101])
        assert not b.insert(0b110)  # = 011 ^ 101
        assert b.rank == 2

    def test_reduce_membership(self):
        b = Gf2Basis(3, rows=[0b011, 0b101])
        assert b.contains(0b110)
        assert not b.contains(0b001)

    def test_zero_vector_always_contained(self):
        assert Gf2Basis(3).contains(0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Gf2Basis(2).reduce(0b100)

    def test_decodable_tokens_partial(self):
        # span{e0, e1 ^ e2}: only token 0 decodable
        b = Gf2Basis(3, rows=[0b001, 0b110])
        assert b.decodable_tokens() == {0}

    def test_decodable_all_at_full_rank(self):
        b = Gf2Basis(3, rows=[0b001, 0b011, 0b111])
        assert b.full_rank
        assert b.decodable_tokens() == {0, 1, 2}

    def test_decodable_from_mixed_rows(self):
        # e0^e1 and e1 span {e0^e1, e1, e0}: both decodable via reduction
        b = Gf2Basis(2, rows=[0b11, 0b10])
        assert b.decodable_tokens() == {0, 1}

    def test_random_combination_in_span_nonzero(self):
        rng = np.random.default_rng(3)
        b = Gf2Basis(4, rows=[0b0011, 0b1100])
        for _ in range(20):
            v = b.random_combination(rng)
            assert v != 0
            assert b.contains(v)

    def test_random_combination_empty_basis(self):
        assert Gf2Basis(3).random_combination(np.random.default_rng(0)) == 0

    @given(
        k=st.integers(1, 16),
        vecs=st.lists(st.integers(0, 2**16 - 1), max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_numpy(self, k, vecs):
        """Cross-check rank against numpy Gaussian elimination over GF(2)."""
        vecs = [v & ((1 << k) - 1) for v in vecs]
        b = Gf2Basis(k, rows=vecs)
        if vecs:
            m = np.array(
                [[(v >> j) & 1 for j in range(k)] for v in vecs], dtype=np.uint8
            )
            # numpy GF(2) elimination
            rank = 0
            mm = m.copy()
            for col in range(k):
                rows_ = [i for i in range(rank, len(mm)) if mm[i, col]]
                if not rows_:
                    continue
                mm[[rank, rows_[0]]] = mm[[rows_[0], rank]]
                for i in range(len(mm)):
                    if i != rank and mm[i, col]:
                        mm[i] ^= mm[rank]
                rank += 1
            assert b.rank == rank
        else:
            assert b.rank == 0

    @given(k=st.integers(1, 12), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_unit_vectors_always_decodable_after_full_feed(self, k, seed):
        rng = np.random.default_rng(seed)
        b = Gf2Basis(k)
        # feed random vectors until full rank (guaranteed with unit top-up)
        for t in range(k):
            b.insert(1 << t)
        assert b.decodable_tokens() == set(range(k))


class TestNetworkCodingNode:
    def _ctx(self, r=0):
        return RoundContext(round_index=r, node=0, neighbors=frozenset({1}))

    def test_initial_tokens_decodable(self):
        node = NetworkCodingNode(0, 4, frozenset({1, 3}),
                                 rng=np.random.default_rng(0))
        assert node.TA == {1, 3}
        assert node.rank == 2

    def test_send_carries_payload_cost_one(self):
        node = NetworkCodingNode(0, 4, frozenset({1}),
                                 rng=np.random.default_rng(0))
        msgs = node.send(self._ctx())
        assert len(msgs) == 1
        assert msgs[0].cost == 1
        assert msgs[0].payload is not None

    def test_empty_node_silent(self):
        node = NetworkCodingNode(0, 4, frozenset(),
                                 rng=np.random.default_rng(0))
        assert node.send(self._ctx()) == []

    def test_receives_coded_and_plain(self):
        node = NetworkCodingNode(0, 3, frozenset(),
                                 rng=np.random.default_rng(0))
        node.receive(self._ctx(), [
            Message(sender=1, tokens=frozenset(), payload=0b110, payload_cost=1),
            Message.broadcast(2, {0}),
        ])
        assert node.rank == 2
        assert 0 in node.TA

    def test_decoding_via_combination(self):
        node = NetworkCodingNode(0, 2, frozenset(),
                                 rng=np.random.default_rng(0))
        node.receive(self._ctx(), [
            Message(sender=1, tokens=frozenset(), payload=0b11, payload_cost=1),
        ])
        assert node.TA == set()  # e0^e1 alone decodes nothing
        node.receive(self._ctx(), [
            Message(sender=1, tokens=frozenset(), payload=0b01, payload_cost=1),
        ])
        assert node.TA == {0, 1}  # now both decodable


class TestNetworkCodingEndToEnd:
    def test_completes_on_static_network(self):
        n, k = 10, 4
        trace = static_trace(complete_graph(n), rounds=60)
        res = run(trace, make_netcoding_factory(seed=1), k=k,
                  initial=initial_assignment(k, n, mode="spread"),
                  max_rounds=60, stop_when_complete=True)
        assert res.complete

    def test_completes_on_dynamic_worstcase(self):
        n, k = 12, 3
        trace = shuffled_path_trace(n, rounds=8 * n, seed=4)
        res = run(trace, make_netcoding_factory(seed=2), k=k,
                  initial=initial_assignment(k, n, mode="spread"),
                  max_rounds=8 * n, stop_when_complete=True)
        assert res.complete

    def test_reproducible(self):
        n, k = 8, 3
        trace = static_trace(complete_graph(n), rounds=40)
        init = initial_assignment(k, n, mode="spread")
        a = run(trace, make_netcoding_factory(seed=9), k=k, initial=init,
                max_rounds=40, stop_when_complete=True)
        b = run(trace, make_netcoding_factory(seed=9), k=k, initial=init,
                max_rounds=40, stop_when_complete=True)
        assert a.metrics.completion_round == b.metrics.completion_round

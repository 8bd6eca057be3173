"""Tests for the array-native Broadcast CONGEST engine and its seams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import (
    BroadcastCongestAlgorithm,
    MessageCodec,
    ObjectAlgorithmsAdapter,
    VectorizedBroadcastAlgorithm,
    VectorizedBroadcastNetwork,
    WordCodec,
)
from repro.congest.vectorized import (
    check_plane,
    drive,
    inbox_from_lists,
    plane_ints,
    plane_words,
)
from repro.errors import ConfigurationError, MessageSizeError
from repro.graphs import Topology, path_graph, star_graph
from tests.algorithms.per_node_oracle import BroadcastCongestNetwork
from tests.core.test_transpiler import GossipSum


class _BroadcastOnce(BroadcastCongestAlgorithm):
    """Broadcasts its ID once, records what it hears, finishes."""

    def __init__(self):
        self.inbox: list[int] = []
        self._done = False

    def broadcast(self, round_index):
        return self.ctx.node_id if round_index == 0 else None

    def receive(self, round_index, messages):
        self.inbox.extend(messages)
        self._done = True

    @property
    def finished(self):
        return self._done

    def output(self):
        return sorted(self.inbox)


class _AllBeep(VectorizedBroadcastAlgorithm):
    """Minimal columnar algorithm: every node broadcasts its ID once."""

    def setup(self, net):
        super().setup(net)
        self._round = -1
        self._heard: list[list[int]] = [[] for _ in range(net.num_nodes)]

    def broadcast_step(self, round_index):
        self._round = round_index
        n = self.net.num_nodes
        active = np.full(n, round_index == 0)
        return self.net.ids.copy(), active

    def receive_step(self, round_index, inbox_indptr, inbox):
        for node in range(self.net.num_nodes):
            lo, hi = int(inbox_indptr[node]), int(inbox_indptr[node + 1])
            self._heard[node].extend(int(row[0]) for row in inbox[lo:hi])

    def finished_mask(self):
        return np.full(self.net.num_nodes, self._round >= 0)

    def outputs(self):
        return [sorted(heard) for heard in self._heard]


class TestWordCodec:
    def test_matches_message_codec_layout(self):
        fields = [("tag", 2), ("hi", 7), ("lo", 7), ("value", 20)]
        scalar = MessageCodec(fields)
        worded = WordCodec(fields)
        plane = worded.pack(3, tag=1, hi=[5, 6, 7], lo=2, value=[9, 0, 31337])
        for row, (hi, value) in enumerate(((5, 9), (6, 0), (7, 31337))):
            assert int(plane[row, 0]) == scalar.pack(
                tag=1, hi=hi, lo=2, value=value
            )
        assert list(worded.unpack(plane, "hi")) == [5, 6, 7]
        assert list(worded.unpack(plane, "value")) == [9, 0, 31337]

    def test_wide_field_round_trip(self):
        codec = WordCodec([("tag", 2), ("value", 150)])
        value = np.array(
            [[0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x3F]], dtype=np.uint64
        )
        plane = codec.pack(1, tag=3, value=value)
        assert plane.shape == (1, codec.words) == (1, 3)
        assert np.array_equal(codec.unpack(plane, "value"), value)
        assert list(codec.unpack(plane, "tag")) == [3]

    def test_duplicate_and_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            WordCodec([("a", 2), ("a", 3)])
        codec = WordCodec([("a", 2), ("b", 3)])
        with pytest.raises(ConfigurationError):
            codec.pack(1, a=1)

    def test_unknown_field_rejected(self):
        codec = WordCodec([("a", 2), ("b", 3)])
        with pytest.raises(ConfigurationError):
            codec.pack(1, a=1, b=1, bogus=3)

    def test_overwide_value_rejected_like_message_codec(self):
        # MessageCodec raises; WordCodec must too, never corrupt the
        # neighbouring field.
        codec = WordCodec([("tag", 2), ("id", 4)])
        with pytest.raises(MessageSizeError):
            codec.pack(1, tag=5, id=2)
        with pytest.raises(MessageSizeError):
            codec.pack(2, tag=1, id=np.array([3, 16], dtype=np.uint64))

    def test_overwide_wide_field_rejected(self):
        codec = WordCodec([("tag", 2), ("value", 70)])
        bad = np.array([[0, 1 << 7]], dtype=np.uint64)  # needs 71 bits
        with pytest.raises(MessageSizeError):
            codec.pack(1, tag=1, value=bad)
        ok = np.array([[0, (1 << 6) - 1]], dtype=np.uint64)
        assert np.array_equal(codec.unpack(codec.pack(1, tag=1, value=ok), "value"), ok)

    def test_narrow_value_for_wide_field_accepted(self):
        codec = WordCodec([("tag", 2), ("value", 90)])
        plane = codec.pack(1, tag=1, value=np.array([1 << 40], dtype=np.uint64))
        assert int(codec.unpack(plane, "value")[0, 0]) == 1 << 40


class TestPlane:
    def test_int64_plane_requires_small_budget(self):
        with pytest.raises(ConfigurationError):
            plane_words(np.zeros(4, dtype=np.int64), 90)

    def test_check_plane_enforces_budget(self):
        words = plane_words(np.array([0, 9], dtype=np.int64), 3)
        check_plane(words, np.array([True, False]), 3)  # inactive overflow ok
        with pytest.raises(MessageSizeError):
            check_plane(words, np.array([True, True]), 3)

    def test_negative_messages_rejected(self):
        words = plane_words(np.array([-1], dtype=np.int64), 8)
        with pytest.raises(MessageSizeError):
            check_plane(words, np.array([True]), 8)

    def test_ints_and_lists_round_trip_wide_planes(self):
        wide = (1 << 64) + 3
        words = np.array([[3, 1], [7, 0], [5, 2]], dtype=np.uint64)
        active = np.array([True, False, True])
        assert plane_ints(words, active) == [wide, None, (2 << 64) + 5]
        indptr, inbox = inbox_from_lists([[wide], [], [7, (2 << 64) + 5]], 90)
        assert indptr.tolist() == [0, 1, 1, 3]
        assert inbox.tolist() == [[3, 1], [7, 0], [5, 2]]


class TestDrive:
    """The one round loop: a delivery decides what each node receives."""

    def _network(self, topology):
        return VectorizedBroadcastNetwork(topology, message_bits=6, seed=3)

    def _gossip(self, n):
        return ObjectAlgorithmsAdapter([GossipSum() for _ in range(n)])

    def test_run_is_drive_with_gather(self, regular12):
        network = self._network(regular12)
        net = network.vector_context()
        assert drive(net, self._gossip(12), 10, net.gather) == network.run(
            self._gossip(12), max_rounds=10
        )

    def test_delivery_that_drops_every_message(self, regular12):
        net = self._network(regular12).vector_context()

        def drop(round_index, words, active):
            empty = np.zeros((0, words.shape[1]), dtype=np.uint64)
            return np.zeros(net.num_nodes + 1, dtype=np.int64), empty

        result = drive(net, self._gossip(12), 10, drop)
        assert result.outputs == [0] * 12
        assert result.rounds_used == 3
        assert result.messages_sent == 3 * 12
        assert result.finished

    def test_delivery_sees_every_round(self, regular12):
        net = self._network(regular12).vector_context()
        calls = []

        def record(round_index, words, active):
            calls.append((round_index, words.copy(), active.copy()))
            return net.gather(round_index, words, active)

        result = drive(net, self._gossip(12), 10, record)
        assert [round_index for round_index, _, _ in calls] == [0, 1, 2]
        for round_index, words, active in calls:
            assert active.all()
            assert words[:, 0].tolist() == [
                (v + round_index) % 61 for v in range(12)
            ]
        assert result.rounds_used == len(calls)


class TestVectorizedDriver:
    def test_columnar_algorithm_matches_reference_contract(self):
        topology = Topology(star_graph(4))
        vectorized = VectorizedBroadcastNetwork(topology).run(
            _AllBeep(), max_rounds=3
        )
        reference = BroadcastCongestNetwork(topology).run(
            [_BroadcastOnce() for _ in range(4)], max_rounds=3
        )
        assert vectorized.outputs == reference.outputs
        assert vectorized.rounds_used == reference.rounds_used
        assert vectorized.messages_sent == reference.messages_sent
        assert vectorized.finished and reference.finished

    def test_adapter_is_bit_identical_to_reference(self):
        topology = Topology(path_graph(5))
        reference = BroadcastCongestNetwork(topology, message_bits=8).run(
            [_BroadcastOnce() for _ in range(5)], max_rounds=4
        )
        adapted = VectorizedBroadcastNetwork(topology, message_bits=8).run(
            ObjectAlgorithmsAdapter([_BroadcastOnce() for _ in range(5)]),
            max_rounds=4,
        )
        assert adapted.outputs == reference.outputs
        assert adapted.rounds_used == reference.rounds_used
        assert adapted.messages_sent == reference.messages_sent

    def test_adapter_checks_message_budget(self):
        class TooBig(_BroadcastOnce):
            def broadcast(self, round_index):
                return 1 << 60

        topology = Topology(path_graph(2))
        with pytest.raises(MessageSizeError):
            VectorizedBroadcastNetwork(topology, message_bits=8).run(
                ObjectAlgorithmsAdapter([TooBig(), TooBig()]), max_rounds=1
            )

    def test_adapter_rejects_wrong_count(self):
        topology = Topology(path_graph(3))
        with pytest.raises(ConfigurationError):
            VectorizedBroadcastNetwork(topology).run(
                ObjectAlgorithmsAdapter([_BroadcastOnce()]), max_rounds=1
            )

    def test_unfinished_run_reports(self):
        class Silent(_AllBeep):
            def finished_mask(self):
                return np.zeros(self.net.num_nodes, dtype=bool)

        topology = Topology(path_graph(3))
        result = VectorizedBroadcastNetwork(topology).run(Silent(), max_rounds=4)
        assert not result.finished
        assert result.rounds_used == 4

    def test_custom_ids_on_the_plane(self):
        topology = Topology(path_graph(2))
        result = VectorizedBroadcastNetwork(
            topology, ids=[10, 99], message_bits=8
        ).run(_AllBeep(), max_rounds=2)
        assert result.outputs == [[99], [10]]


class TestVectorContext:
    def test_id_and_slot_lookups_handle_garbage(self):
        topology = Topology(path_graph(3))
        net = VectorizedBroadcastNetwork(topology, ids=[5, 9, 7]).vector_context()
        index = net.index_of_ids(np.array([9, 5, 1234, 7]))
        assert list(index) == [1, 0, -1, 2]
        # (dst=0, src=1) is an edge; (dst=0, src=2) is not; -1 misses.
        slot = net.slot_of(np.array([0, 0, 1]), np.array([1, 2, -1]))
        assert slot[0] >= 0 and slot[1] == -1 and slot[2] == -1
        assert net.edge_src[slot[0]] == 1 and net.edge_dst[slot[0]] == 0

    def test_node_streams_match_node_rng(self):
        topology = Topology(path_graph(3))
        net = VectorizedBroadcastNetwork(topology, seed=11).vector_context()
        from repro.rng import random_bits

        drawn = net.node_streams().draw(np.array([0, 1, 2]), 40)
        expected = [random_bits(net.node_rng(v), 40) for v in range(3)]
        assert [int(row[0]) for row in drawn] == expected

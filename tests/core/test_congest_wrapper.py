"""Tests for the Corollary 12 CONGEST-over-Broadcast-CONGEST wrapper."""

from __future__ import annotations

from typing import Mapping

import pytest

from repro.congest import CongestAlgorithm, CongestNetwork
from repro.core import CongestViaBroadcast, congest_payload_bits
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.graphs import Topology, path_graph, random_regular_graph, star_graph
from tests.algorithms.per_node_oracle import BroadcastCongestNetwork


class PerNeighborValues(CongestAlgorithm):
    """Two CONGEST rounds of distinct per-neighbour messages."""

    def __init__(self):
        self.history: list[dict[int, int]] = []

    def send(self, round_index) -> Mapping[int, int]:
        if round_index >= 2:
            return {}
        return {
            u: (self.ctx.node_id * 3 + u + round_index) % 16
            for u in (self.ctx.neighbor_ids or [])
        }

    def receive(self, round_index, messages) -> None:
        self.history.append(dict(messages))

    @property
    def finished(self):
        return len(self.history) >= 2

    def output(self):
        return self.history


def run_wrapped(topology: Topology, message_bits: int = 24, max_bc_rounds: int = 40):
    n = topology.num_nodes
    ids = list(range(n))
    wrapped = [
        CongestViaBroadcast(PerNeighborValues(), ids=ids, message_bits=message_bits)
        for _ in range(n)
    ]
    network = BroadcastCongestNetwork(topology, ids=ids, message_bits=message_bits)
    return network.run(wrapped, max_rounds=max_bc_rounds)


def run_native(topology: Topology):
    n = topology.num_nodes
    return CongestNetwork(topology, message_bits=16).run(
        [PerNeighborValues() for _ in range(n)], max_rounds=5
    )


class TestEquivalenceWithNativeCongest:
    @pytest.mark.parametrize(
        "graph_name",
        ["path", "star", "regular"],
    )
    def test_outputs_match_native(self, graph_name):
        topology = {
            "path": Topology(path_graph(5)),
            "star": Topology(star_graph(5)),
            "regular": Topology(random_regular_graph(8, 3, seed=2)),
        }[graph_name]
        assert run_wrapped(topology).outputs == run_native(topology).outputs

    def test_round_cost_is_one_plus_t_delta(self):
        topology = Topology(random_regular_graph(8, 3, seed=2))
        result = run_wrapped(topology)
        # 1 announcement + 2 CONGEST rounds * Delta slots
        assert result.rounds_used == 1 + 2 * 3
        assert result.finished


class TestPayloadBits:
    def test_formula(self):
        assert congest_payload_bits(24, 5) == 24 - 1 - 10

    def test_too_small_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            congest_payload_bits(10, 5)

    def test_boundary_exactly_one_payload_bit(self):
        # 1 tag + 2*5 id bits + 1 payload bit = 12: the smallest legal budget
        assert congest_payload_bits(12, 5) == 1

    def test_boundary_zero_payload_bits_rejected(self):
        with pytest.raises(ConfigurationError, match="too small"):
            congest_payload_bits(11, 5)

    def test_budget_smaller_than_ids_alone_rejected(self):
        with pytest.raises(ConfigurationError):
            congest_payload_bits(4, 8)

    def test_error_message_names_the_budget(self):
        with pytest.raises(ConfigurationError, match="budget 10"):
            congest_payload_bits(10, 5)

    def test_payload_override_checked(self):
        with pytest.raises(ConfigurationError):
            CongestViaBroadcast(
                PerNeighborValues(), ids=[0, 1], message_bits=24, payload_bits=30
            )

    def test_wrapper_rejects_too_small_budget(self):
        # the wrapper derives id_bits from the id space, then sizes payloads
        with pytest.raises(ConfigurationError):
            CongestViaBroadcast(PerNeighborValues(), ids=[0, 31], message_bits=11)


class TestViolations:
    def test_non_neighbor_destination_detected(self):
        class Stranger(PerNeighborValues):
            def send(self, round_index):
                return {99: 1}

        topology = Topology(path_graph(3))
        ids = [0, 1, 2]
        wrapped = [
            CongestViaBroadcast(Stranger(), ids=ids, message_bits=24)
            for _ in range(3)
        ]
        network = BroadcastCongestNetwork(topology, ids=ids, message_bits=24)
        with pytest.raises(ProtocolViolationError):
            network.run(wrapped, max_rounds=10)

    def test_oversized_payload_detected(self):
        class Chunky(PerNeighborValues):
            def send(self, round_index):
                return {u: 1 << 30 for u in self.ctx.neighbor_ids}

        topology = Topology(path_graph(3))
        ids = [0, 1, 2]
        wrapped = [
            CongestViaBroadcast(Chunky(), ids=ids, message_bits=24)
            for _ in range(3)
        ]
        network = BroadcastCongestNetwork(topology, ids=ids, message_bits=24)
        from repro.errors import MessageSizeError

        with pytest.raises(MessageSizeError):
            network.run(wrapped, max_rounds=10)

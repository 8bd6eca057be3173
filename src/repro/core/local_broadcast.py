"""B-bit Local Broadcast (Definition 13) and its upper bounds (Lemma 15).

Every node ``v`` holds a ``B``-bit message ``m_{v→u}`` for each neighbour
``u`` and must output the set ``{⟨ID_u, m_{u→v}⟩}`` of messages addressed
to it.  Lemma 15's algorithms:

* **Broadcast CONGEST**: ``Δ ⌈B/payload⌉`` rounds — node ``v`` broadcasts
  ``⟨ID_u, ID_v, chunk⟩`` for each neighbour ``u`` in turn, chunking the
  ``B`` bits through the per-round budget;
* **CONGEST**: ``⌈B/budget⌉`` rounds — ``v`` sends each neighbour its
  message directly, chunked.

These exact round counts are what experiment E9 verifies, and together with
the Lemma 14 counting bound they yield the Ω(Δ log n) / Ω(Δ² log n)
simulation overhead lower bounds of Corollary 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..congest.algorithm import BroadcastCongestAlgorithm, CongestAlgorithm
from ..congest.context import NodeContext
from ..congest.model import MessageCodec, required_bits
from ..congest.network import CongestNetwork
from ..congest.vectorized import (
    ObjectAlgorithmsAdapter,
    VectorizedBroadcastNetwork,
)
from ..errors import ConfigurationError
from ..graphs import Topology
from ..graphs.hard_instances import LocalBroadcastInstance

__all__ = [
    "LocalBroadcastViaBroadcastCongest",
    "LocalBroadcastViaCongest",
    "LocalBroadcastReport",
    "run_local_broadcast_bc",
    "run_local_broadcast_congest",
]


@dataclass(frozen=True)
class LocalBroadcastReport:
    """Outcome of solving a Local Broadcast instance.

    Attributes
    ----------
    rounds_used:
        Communication rounds the engine executed.
    predicted_rounds:
        The Lemma 15 round count for the chosen chunking.
    correct:
        Whether every node output exactly its expected message set.
    """

    rounds_used: int
    predicted_rounds: int
    correct: bool


class LocalBroadcastViaBroadcastCongest(BroadcastCongestAlgorithm):
    """One node of the Lemma 15 Broadcast CONGEST algorithm.

    The round schedule is globally synchronised: round ``i·chunks + j``
    carries chunk ``j`` for the node's ``i``-th neighbour (sorted by
    destination ID); nodes with fewer neighbours idle in spare slots.
    """

    def __init__(
        self,
        node_id: int,
        messages: Mapping[int, int],
        message_bits: int,
        id_bits: int,
        budget_bits: int,
    ) -> None:
        self._node_id = node_id
        self._outgoing = sorted(messages.items())
        self._message_bits = message_bits
        payload_bits = budget_bits - 2 * id_bits
        if payload_bits < 1:
            raise ConfigurationError(
                f"budget {budget_bits} too small for two {id_bits}-bit IDs"
            )
        self._payload_bits = payload_bits
        self._chunks = max(1, math.ceil(message_bits / payload_bits))
        self._codec = MessageCodec(
            [("dest", id_bits), ("sender", id_bits), ("chunk", payload_bits)]
        )
        self._assembled: dict[int, int] = {}
        self._total_rounds = 0
        self._done = False

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        self._total_rounds = max(1, ctx.max_degree) * self._chunks

    @property
    def chunks(self) -> int:
        """Chunks per message, ``⌈B/payload⌉``."""
        return self._chunks

    @property
    def total_rounds(self) -> int:
        """The algorithm's fixed round count ``Δ · chunks``."""
        return self._total_rounds

    def broadcast(self, round_index: int) -> int | None:
        if round_index >= self._total_rounds:
            return None
        neighbor_slot, chunk_index = divmod(round_index, self._chunks)
        if neighbor_slot >= len(self._outgoing):
            return None
        destination, message = self._outgoing[neighbor_slot]
        chunk = (message >> (chunk_index * self._payload_bits)) & (
            (1 << self._payload_bits) - 1
        )
        return self._codec.pack(
            dest=destination, sender=self._node_id, chunk=chunk
        )

    def receive(self, round_index: int, messages: list[int]) -> None:
        chunk_index = round_index % self._chunks
        for fields in map(self._codec.unpack, messages):
            if fields["dest"] != self._node_id:
                continue
            sender = fields["sender"]
            shifted = fields["chunk"] << (chunk_index * self._payload_bits)
            self._assembled[sender] = self._assembled.get(sender, 0) | shifted
        if round_index + 1 >= self._total_rounds:
            self._done = True

    @property
    def finished(self) -> bool:
        return self._done

    def output(self) -> set[tuple[int, int]]:
        mask = (1 << self._message_bits) - 1
        return {
            (sender, value & mask) for sender, value in self._assembled.items()
        }


class LocalBroadcastViaCongest(CongestAlgorithm):
    """One node of the Lemma 15 CONGEST algorithm (direct chunked sends)."""

    def __init__(
        self, node_id: int, messages: Mapping[int, int], message_bits: int
    ) -> None:
        self._node_id = node_id
        self._messages = dict(messages)
        self._message_bits = message_bits
        self._chunks = 0
        self._assembled: dict[int, int] = {}
        self._done = False

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        self._payload_bits = ctx.message_bits
        self._chunks = max(1, math.ceil(self._message_bits / self._payload_bits))

    @property
    def chunks(self) -> int:
        """Chunks per message, ``⌈B/budget⌉`` — the algorithm's round count."""
        return self._chunks

    def send(self, round_index: int) -> Mapping[int, int]:
        if round_index >= self._chunks:
            return {}
        mask = (1 << self._payload_bits) - 1
        shift = round_index * self._payload_bits
        return {
            destination: (message >> shift) & mask
            for destination, message in self._messages.items()
        }

    def receive(self, round_index: int, messages: Mapping[int, int]) -> None:
        shift = round_index * self._payload_bits
        for sender, chunk in messages.items():
            self._assembled[sender] = self._assembled.get(sender, 0) | (
                chunk << shift
            )
        if round_index + 1 >= self._chunks:
            self._done = True

    @property
    def finished(self) -> bool:
        return self._done

    def output(self) -> set[tuple[int, int]]:
        mask = (1 << self._message_bits) - 1
        return {
            (sender, value & mask) for sender, value in self._assembled.items()
        }


def run_local_broadcast_bc(
    instance: LocalBroadcastInstance, budget_bits: int | None = None
) -> LocalBroadcastReport:
    """Solve an instance with the Broadcast CONGEST algorithm and verify it.

    The per-node algorithms run on the array-native Broadcast CONGEST
    engine through :class:`~repro.congest.vectorized.ObjectAlgorithmsAdapter`.
    """
    topology = Topology(instance.graph)
    n = topology.num_nodes
    id_bits = required_bits(max(instance.ids.values()) + 1)
    if budget_bits is None:
        budget_bits = 2 * id_bits + max(
            1, math.ceil(math.log2(max(2, n)))
        )
    algorithms = [
        LocalBroadcastViaBroadcastCongest(
            node_id=instance.ids[v],
            messages={
                instance.ids[u]: instance.messages[(v, u)]
                for u in instance.graph.neighbors(v)
            },
            message_bits=instance.message_bits,
            id_bits=id_bits,
            budget_bits=budget_bits,
        )
        for v in range(n)
    ]
    network = VectorizedBroadcastNetwork(
        topology, ids=[instance.ids[v] for v in range(n)], message_bits=budget_bits
    )
    # All nodes share the chunk count; total rounds = Δ · chunks (Lemma 15).
    predicted = max(1, topology.max_degree) * algorithms[0].chunks
    result = network.run(
        ObjectAlgorithmsAdapter(algorithms), max_rounds=predicted + 1
    )
    correct = all(
        result.outputs[v] == instance.expected_output(v) for v in range(n)
    )
    return LocalBroadcastReport(
        rounds_used=result.rounds_used, predicted_rounds=predicted, correct=correct
    )


def run_local_broadcast_congest(
    instance: LocalBroadcastInstance, budget_bits: int | None = None
) -> LocalBroadcastReport:
    """Solve an instance with the CONGEST algorithm and verify it."""
    topology = Topology(instance.graph)
    n = topology.num_nodes
    if budget_bits is None:
        budget_bits = max(1, math.ceil(math.log2(max(2, n))))
    algorithms = [
        LocalBroadcastViaCongest(
            node_id=instance.ids[v],
            messages={
                instance.ids[u]: instance.messages[(v, u)]
                for u in instance.graph.neighbors(v)
            },
            message_bits=instance.message_bits,
        )
        for v in range(n)
    ]
    network = CongestNetwork(
        topology, ids=[instance.ids[v] for v in range(n)], message_bits=budget_bits
    )
    predicted = max(1, math.ceil(instance.message_bits / budget_bits))
    result = network.run(algorithms, max_rounds=predicted + 1)
    correct = all(
        result.outputs[v] == instance.expected_output(v) for v in range(n)
    )
    return LocalBroadcastReport(
        rounds_used=result.rounds_used, predicted_rounds=predicted, correct=correct
    )

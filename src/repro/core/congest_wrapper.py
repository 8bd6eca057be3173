"""Corollary 12: CONGEST on top of Broadcast CONGEST.

A ``T``-round CONGEST algorithm is simulated in ``1 + TΔ`` Broadcast
CONGEST rounds: nodes first broadcast their IDs to all neighbours, and each
CONGEST round becomes ``Δ`` broadcast slots in which node ``v`` broadcasts
``⟨ID_dest, ID_v, payload⟩`` for each of its outgoing messages in turn.
Receivers keep the messages addressed to them.

The paper's message is ``⟨ID_u, m_{v→u}⟩``; we additionally pack the sender
ID so the general :class:`~repro.congest.CongestAlgorithm` interface (which
attributes messages by sender) is preserved — still ``O(log n)`` bits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..congest.algorithm import BroadcastCongestAlgorithm, CongestAlgorithm
from ..congest.context import NodeContext
from ..congest.model import MessageCodec, check_message, required_bits
from ..errors import ConfigurationError, ProtocolViolationError

__all__ = [
    "CongestViaBroadcast",
    "congest_payload_bits",
    "wrap_congest_algorithms",
]

_TAG_ANNOUNCE = 0
_TAG_PAYLOAD = 1


def congest_payload_bits(message_bits: int, id_bits: int) -> int:
    """Payload bits available per slot after the tag and two IDs are packed."""
    payload = message_bits - 1 - 2 * id_bits
    if payload < 1:
        raise ConfigurationError(
            f"message budget {message_bits} too small for two {id_bits}-bit "
            "IDs plus a payload; increase gamma or shrink the ID space"
        )
    return payload


def wrap_congest_algorithms(
    algorithms: "Sequence[CongestAlgorithm]",
    ids: Sequence[int],
    message_bits: int,
    payload_bits: "int | None" = None,
) -> "list[CongestViaBroadcast]":
    """Wrap a network's CONGEST algorithms for Broadcast CONGEST execution.

    The resulting per-node wrappers run on the per-node engine directly,
    or on the array-native driver via
    :class:`~repro.congest.vectorized.ObjectAlgorithmsAdapter` — which
    is how :meth:`~repro.core.transpiler.BeepSimulator.run_congest`
    takes the Corollary 12 path.
    """
    return [
        CongestViaBroadcast(
            algorithm,
            ids=ids,
            payload_bits=payload_bits,
            message_bits=message_bits,
        )
        for algorithm in algorithms
    ]


class CongestViaBroadcast(BroadcastCongestAlgorithm):
    """Wraps one node's CONGEST algorithm as a Broadcast CONGEST algorithm.

    Parameters
    ----------
    inner:
        The node's CONGEST algorithm.
    ids:
        The global ID list (used only to size the ID fields; knowing the ID
        space is a standard CONGEST assumption).
    payload_bits:
        Per-slot payload width; defaults to everything left of the budget.
    message_bits:
        The Broadcast CONGEST per-round budget.
    """

    def __init__(
        self,
        inner: CongestAlgorithm,
        ids: Sequence[int],
        message_bits: int,
        payload_bits: int | None = None,
    ) -> None:
        self._inner = inner
        id_bits = required_bits(max(ids) + 1)
        available = congest_payload_bits(message_bits, id_bits)
        if payload_bits is None:
            payload_bits = available
        if payload_bits > available:
            raise ConfigurationError(
                f"payload_bits {payload_bits} exceeds available {available}"
            )
        self._codec = MessageCodec(
            [
                ("tag", 1),
                ("dest", id_bits),
                ("sender", id_bits),
                ("payload", payload_bits),
            ]
        )
        self._payload_bits = payload_bits
        self._neighbor_ids: list[int] | None = None
        self._outgoing: list[tuple[int, int]] = []
        self._inbox: dict[int, int] = {}
        self._congest_round = -1
        self._slot = 0
        self._max_degree = 0

    @property
    def inner(self) -> CongestAlgorithm:
        """The wrapped CONGEST algorithm."""
        return self._inner

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        self._max_degree = max(1, ctx.max_degree)
        # The inner algorithm's setup is deferred until neighbour IDs are
        # learned from the announcement round.
        self._inner_ctx = replace(ctx, message_bits=self._payload_bits)

    def broadcast(self, round_index: int) -> int | None:
        if round_index == 0:
            return self._codec.pack(
                tag=_TAG_ANNOUNCE, dest=0, sender=self.ctx.node_id, payload=0
            )
        if self._neighbor_ids is None:
            raise ProtocolViolationError(
                "broadcast called before the ID announcement completed"
            )
        if self._slot == 0:
            self._begin_congest_round()
        if self._slot < len(self._outgoing):
            destination, payload = self._outgoing[self._slot]
            return self._codec.pack(
                tag=_TAG_PAYLOAD,
                dest=destination,
                sender=self.ctx.node_id,
                payload=payload,
            )
        return None

    def receive(self, round_index: int, messages: list[int]) -> None:
        if round_index == 0:
            announced = {
                fields["sender"]
                for fields in map(self._codec.unpack, messages)
                if fields["tag"] == _TAG_ANNOUNCE
            }
            self._neighbor_ids = sorted(announced)
            self._inner_ctx = replace(
                self._inner_ctx, neighbor_ids=list(self._neighbor_ids)
            )
            self._inner.setup(self._inner_ctx)
            return
        for fields in map(self._codec.unpack, messages):
            if fields["tag"] != _TAG_PAYLOAD:
                continue
            if fields["dest"] == self.ctx.node_id:
                self._inbox[fields["sender"]] = fields["payload"]
        self._slot += 1
        if self._slot >= self._max_degree:
            if not self._inner.finished:
                self._inner.receive(self._congest_round, dict(self._inbox))
            self._inbox.clear()
            self._slot = 0

    @property
    def finished(self) -> bool:
        return (
            self._neighbor_ids is not None
            and self._slot == 0
            and self._inner.finished
        )

    def output(self) -> object:
        return self._inner.output()

    def _begin_congest_round(self) -> None:
        self._congest_round += 1
        self._outgoing = []
        if self._inner.finished:
            return
        outgoing = self._inner.send(self._congest_round)
        assert self._neighbor_ids is not None
        neighbor_set = set(self._neighbor_ids)
        for destination, payload in sorted(outgoing.items()):
            if destination not in neighbor_set:
                raise ProtocolViolationError(
                    f"node {self.ctx.node_id} addressed non-neighbour {destination}"
                )
            check_message(payload, self._payload_bits)
            self._outgoing.append((destination, payload))
        if len(self._outgoing) > self._max_degree:
            raise ProtocolViolationError(
                f"node {self.ctx.node_id} sent {len(self._outgoing)} messages "
                f"in one CONGEST round; at most degree <= {self._max_degree} fit"
            )

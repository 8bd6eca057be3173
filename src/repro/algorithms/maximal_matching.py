"""Maximal matching in Broadcast CONGEST — Algorithm 3 of the paper.

Luby-style edge sampling with a four-step handshake per iteration:

1. **Propose** — each node ``v`` samples ``x(e)`` uniformly from ``[n⁹]``
   for every adjacent edge where it is the higher-ID endpoint, and
   broadcasts the sampled minimum as ``Propose⟨e_v, x(e_v)⟩``;
2. **Reply** — ``v`` replies to the smallest incident proposal that beats
   its own proposal's value;
3. **Confirm** — a proposer that received a reply for its edge and sent no
   reply itself confirms, outputs the edge, and ceases;
4. **Echo** — the replier echoes the confirmation (so both endpoints'
   neighbourhoods learn of the match), outputs, and ceases.

Every node that hears ``Confirm⟨{w,z}⟩`` removes its edges to ``w`` and
``z``; a node whose edge set empties outputs *Unmatched* and ceases.
Lemma 19 shows each iteration removes half the edges in expectation, so
``O(log n)`` iterations (of 4 broadcast rounds each, after one ID round)
suffice w.h.p. (Lemma 20).
"""

from __future__ import annotations

import math
from typing import Sequence

from ..congest.algorithm import BroadcastCongestAlgorithm
from ..congest.context import NodeContext
from ..congest.model import MessageCodec, required_bits
from ..congest.network import RunResult
from ..congest.vectorized import VectorizedBroadcastNetwork
from ..errors import ConfigurationError
from ..graphs import Topology
from ..rng import random_bits

__all__ = [
    "UNMATCHED",
    "MaximalMatchingBC",
    "matching_field_widths",
    "matching_message_bits",
    "make_matching_algorithms",
    "run_matching_bc",
]

#: Output sentinel for nodes that end the algorithm unmatched.
UNMATCHED = "unmatched"

_TAG_ANNOUNCE = 0
_TAG_PROPOSE = 1
_TAG_REPLY = 2
_TAG_CONFIRM = 3

#: Sub-rounds per iteration: Propose, Reply, Confirm, Echo.
_PHASES = 4


def _codec(id_bits: int, value_bits: int) -> MessageCodec:
    return MessageCodec(
        [
            ("tag", 2),
            ("hi", id_bits),
            ("lo", id_bits),
            ("value", value_bits),
        ]
    )


def matching_field_widths(
    num_nodes: int,
    ids: Sequence[int] | None = None,
    value_exponent: int = 9,
) -> tuple[int, int]:
    """The matching codec's ``(id_bits, value_bits)`` — the budget source.

    Shared by :func:`make_matching_algorithms`, :func:`run_matching_bc`
    and the sweep workloads, so the columnar run and the per-node engine
    can never disagree on the message budget for the same run.
    """
    max_id = max(ids) if ids is not None else num_nodes - 1
    id_bits = required_bits(max_id + 1)
    value_bits = max(1, value_exponent * required_bits(max(2, num_nodes)))
    return id_bits, value_bits


def matching_message_bits(
    num_nodes: int, id_space: int | None = None, value_exponent: int = 9
) -> int:
    """Message budget Algorithm 3 needs: a tag, two IDs, and an ``[n⁹]``
    sample — ``O(log n)`` bits with the paper's ``x(e) ∈ [n⁹]``
    (``value_exponent`` trades the paper's collision bound for width).
    """
    if id_space is not None:
        id_bits = required_bits(id_space)
        value_bits = max(1, value_exponent * required_bits(max(2, num_nodes)))
    else:
        id_bits, value_bits = matching_field_widths(
            num_nodes, value_exponent=value_exponent
        )
    return 2 + 2 * id_bits + value_bits


class MaximalMatchingBC(BroadcastCongestAlgorithm):
    """One node of Algorithm 3.

    Parameters
    ----------
    id_bits:
        Width of the ID fields (IDs across the network must fit).
    value_bits:
        Width of the sampled-value field (the paper's ``[n⁹]``).
    max_iterations:
        Iteration cap; ``None`` derives the Lemma 20 bound ``4 log₂ n``
        plus slack from the context.
    """

    def __init__(
        self,
        id_bits: int,
        value_bits: int,
        max_iterations: int | None = None,
    ) -> None:
        self._id_bits = id_bits
        self._value_bits = value_bits
        self._max_iterations = max_iterations
        self._matched_partner: int | None = None
        self._ceased = False
        self._edges: set[int] = set()
        self._lower_neighbors: set[int] = set()
        self._proposal: tuple[int, int] | None = None  # (partner, value)
        self._reply_target: int | None = None
        self._sent_reply = False
        self._pending_confirm: tuple[int, int] | None = None
        self._pending_echo: tuple[int, int] | None = None

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        self._codec = _codec(self._id_bits, self._value_bits)
        if self._codec.width > ctx.message_bits:
            raise ConfigurationError(
                f"matching needs {self._codec.width}-bit messages, budget is "
                f"{ctx.message_bits}; see matching_message_bits()"
            )
        if self._max_iterations is None:
            self._max_iterations = 4 * max(
                1, math.ceil(math.log2(max(2, ctx.num_nodes)))
            ) + 4

    # ----- round structure -------------------------------------------------
    # Round 0: ID announcement.  Then iteration i occupies rounds
    # 1 + 4i .. 4 + 4i with sub-rounds Propose/Reply/Confirm/Echo.

    def broadcast(self, round_index: int) -> int | None:
        """Announce, then per iteration: Propose/Reply/Confirm/Echo."""
        if self._ceased:
            return None
        if round_index == 0:
            return self._pack(_TAG_ANNOUNCE, self.ctx.node_id, 0, 0)
        iteration, phase = divmod(round_index - 1, _PHASES)
        if iteration >= self._max_iterations:
            return None
        if phase == 0:
            return self._broadcast_propose()
        if phase == 1:
            if self._reply_target is not None:
                self._sent_reply = True
                return self._pack_edge(_TAG_REPLY, self.ctx.node_id, self._reply_target)
            return None
        if phase == 2:
            if self._pending_confirm is not None:
                hi, lo = self._pending_confirm
                return self._pack_edge(_TAG_CONFIRM, hi, lo)
            return None
        if self._pending_echo is not None:
            hi, lo = self._pending_echo
            return self._pack_edge(_TAG_CONFIRM, hi, lo)
        return None

    def receive(self, round_index: int, messages: list[int]) -> None:
        """Drive the handshake state machine from the heard messages."""
        if self._ceased:
            return
        if round_index == 0:
            for fields in map(self._codec.unpack, messages):
                if fields["tag"] == _TAG_ANNOUNCE:
                    self._edges.add(fields["hi"])
            self._lower_neighbors = {
                u for u in self._edges if u < self.ctx.node_id
            }
            if not self._edges:
                self._cease()
            return
        iteration, phase = divmod(round_index - 1, _PHASES)
        if iteration >= self._max_iterations:
            self._cease()
            return
        unpacked = [self._codec.unpack(m) for m in messages]
        if phase == 0:
            self._receive_proposals(unpacked)
        elif phase == 1:
            self._receive_replies(unpacked)
        elif phase == 2:
            self._receive_confirms(unpacked, echo_phase=False)
        else:
            self._receive_confirms(unpacked, echo_phase=True)
            self._end_iteration()

    # ----- per-phase logic --------------------------------------------------

    def _broadcast_propose(self) -> int | None:
        self._proposal = None
        self._reply_target = None
        self._sent_reply = False
        self._pending_confirm = None
        self._pending_echo = None
        candidates = sorted(self._lower_neighbors)
        if not candidates:
            return None
        samples = [
            (random_bits(self.ctx.rng, self._value_bits), partner)
            for partner in candidates
        ]
        samples.sort()
        # The paper proposes only when the minimum is unique.
        if len(samples) > 1 and samples[0][0] == samples[1][0]:
            return None
        value, partner = samples[0]
        self._proposal = (partner, value)
        return self._pack(_TAG_PROPOSE, self.ctx.node_id, partner, value)

    def _receive_proposals(self, messages: list) -> None:
        best: tuple[int, int] | None = None  # (value, proposer)
        for fields in messages:
            if fields["tag"] != _TAG_PROPOSE:
                continue
            # Only proposals for edges incident to this node matter: the
            # proposer is the higher-ID endpoint, "lo" names the receiver.
            if fields["lo"] != self.ctx.node_id:
                continue
            candidate = (fields["value"], fields["hi"])
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return
        own_value = self._proposal[1] if self._proposal else None
        if own_value is None or best[0] < own_value:
            self._reply_target = best[1]

    def _receive_replies(self, messages: list) -> None:
        if self._proposal is None or self._sent_reply:
            return
        partner, _ = self._proposal
        edge = {partner, self.ctx.node_id}
        for fields in messages:
            if fields["tag"] != _TAG_REPLY:
                continue
            # Only the proposed edge's other endpoint replies about it, so
            # matching the (ID-sorted) edge identifies our partner's reply.
            if {fields["hi"], fields["lo"]} == edge:
                self._pending_confirm = (self.ctx.node_id, partner)
                return

    def _receive_confirms(self, messages: list, echo_phase: bool) -> None:
        me = self.ctx.node_id
        for fields in messages:
            if fields["tag"] != _TAG_CONFIRM:
                continue
            hi, lo = fields["hi"], fields["lo"]
            if me in (hi, lo):
                # Our own edge was confirmed by the proposer: echo it.
                if self._pending_confirm is None and self._pending_echo is None:
                    partner = lo if me == hi else hi
                    if self._sent_reply and partner == self._reply_target:
                        self._pending_echo = (hi, lo)
            else:
                self._edges.discard(hi)
                self._edges.discard(lo)
                self._lower_neighbors.discard(hi)
                self._lower_neighbors.discard(lo)

    def _end_iteration(self) -> None:
        if self._pending_confirm is not None:
            _, partner = self._pending_confirm
            self._matched_partner = partner
            self._cease()
        elif self._pending_echo is not None:
            hi, lo = self._pending_echo
            self._matched_partner = hi if self.ctx.node_id == lo else lo
            self._cease()
        elif not self._edges:
            self._cease()

    def _cease(self) -> None:
        self._ceased = True

    # ----- plumbing ---------------------------------------------------------

    def _pack(self, tag: int, hi: int, lo: int, value: int) -> int:
        return self._codec.pack(tag=tag, hi=hi, lo=lo, value=value)

    def _pack_edge(self, tag: int, a: int, b: int) -> int:
        hi, lo = (a, b) if a > b else (b, a)
        return self._codec.pack(tag=tag, hi=hi, lo=lo, value=0)

    @property
    def finished(self) -> bool:
        return self._ceased

    def output(self) -> object:
        """The matched partner's ID, or :data:`UNMATCHED`."""
        if self._matched_partner is None:
            return UNMATCHED
        return self._matched_partner


def make_matching_algorithms(
    topology: Topology,
    ids: Sequence[int] | None = None,
    value_exponent: int = 9,
    max_iterations: int | None = None,
) -> tuple[list[MaximalMatchingBC], int]:
    """Build per-node matching algorithms plus the message budget they need."""
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    id_bits, value_bits = matching_field_widths(
        n, ids, value_exponent=value_exponent
    )
    budget = 2 + 2 * id_bits + value_bits
    algorithms = [
        MaximalMatchingBC(
            id_bits=id_bits,
            value_bits=value_bits,
            max_iterations=max_iterations,
        )
        for _ in range(n)
    ]
    return algorithms, budget


def _round_budget(num_nodes: int) -> int:
    """The rounds :func:`run_matching_bc` allows (Lemma 20's ``O(log n)``)."""
    iterations = 4 * max(1, math.ceil(math.log2(max(2, num_nodes)))) + 4
    return 1 + _PHASES * iterations


def run_matching_bc(
    topology: Topology,
    seed: int = 0,
    ids: Sequence[int] | None = None,
    value_exponent: int = 9,
) -> RunResult:
    """Run Algorithm 3 on a native Broadcast CONGEST network.

    Executes the columnar :class:`~repro.algorithms.vectorized_matching.
    VectorizedMaximalMatching`, which is bit-identical per seed to
    :func:`make_matching_algorithms` on the per-node engine.
    """
    # Deferred: the columnar module imports UNMATCHED from this one.
    from .vectorized_matching import VectorizedMaximalMatching

    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    id_bits, value_bits = matching_field_widths(
        n, ids, value_exponent=value_exponent
    )
    network = VectorizedBroadcastNetwork(
        topology, ids=ids, message_bits=2 + 2 * id_bits + value_bits, seed=seed
    )
    return network.run(
        VectorizedMaximalMatching(id_bits=id_bits, value_bits=value_bits),
        max_rounds=_round_budget(n),
    )

"""Luby's maximal independent set in Broadcast CONGEST.

The classical algorithm [25] (cited in Section 6) adapted to unattributed
broadcasts: each iteration has three sub-rounds —

1. **Ticket** — every undecided node broadcasts ``⟨ID, x⟩`` with ``x``
   uniform in a poly(n) range;
2. **Join** — a node whose ticket is a strict local minimum among undecided
   neighbours joins the MIS and broadcasts ``Join⟨ID⟩``;
3. **Retire** — nodes hearing a ``Join`` from a neighbour become covered
   and broadcast ``Retire⟨ID⟩`` so the remaining neighbours drop them from
   their active sets.

Runs in ``O(log n)`` iterations w.h.p.
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
from .vectorized_mis import VectorizedLubyMIS

__all__ = [
    "LubyMISBC",
    "make_mis_algorithms",
    "mis_field_widths",
    "mis_message_bits",
    "run_mis_bc",
]


def mis_field_widths(
    num_nodes: int, ids: "Sequence[int] | None" = None
) -> tuple[int, int]:
    """The MIS codec's ``(id_bits, value_bits)`` — the one budget source.

    Shared by :func:`make_mis_algorithms`, :func:`run_mis_bc` and the
    sweep workloads, so the columnar run and the per-node engine can
    never disagree on the message budget for the same run.
    """
    max_id = max(ids) if ids is not None else num_nodes - 1
    id_bits = required_bits(max_id + 1)
    value_bits = max(1, 4 * required_bits(max(2, num_nodes)))
    return id_bits, value_bits


def mis_message_bits(num_nodes: int, ids: "Sequence[int] | None" = None) -> int:
    """Total message budget the MIS codec needs (tag + ID + ticket)."""
    id_bits, value_bits = mis_field_widths(num_nodes, ids)
    return 2 + id_bits + value_bits

_TAG_ANNOUNCE = 0
_TAG_TICKET = 1
_TAG_JOIN = 2
_TAG_RETIRE = 3

_PHASES = 3


class LubyMISBC(BroadcastCongestAlgorithm):
    """One node of Luby's MIS algorithm over unattributed broadcasts."""

    def __init__(
        self, id_bits: int, value_bits: int, max_iterations: int | None = None
    ) -> None:
        self._id_bits = id_bits
        self._value_bits = value_bits
        self._max_iterations = max_iterations
        self._active_neighbors: set[int] = set()
        self._in_mis: bool | None = None
        self._ceased = False
        self._ticket: int | None = None
        self._neighbor_tickets: dict[int, int] = {}
        self._joining = False

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        self._codec = MessageCodec(
            [("tag", 2), ("node", self._id_bits), ("value", self._value_bits)]
        )
        if self._codec.width > ctx.message_bits:
            raise ConfigurationError(
                f"MIS needs {self._codec.width}-bit messages, budget is "
                f"{ctx.message_bits}"
            )
        if self._max_iterations is None:
            self._max_iterations = 8 * max(
                1, math.ceil(math.log2(max(2, ctx.num_nodes)))
            ) + 8

    def broadcast(self, round_index: int) -> int | None:
        """Announce, then per iteration: ticket, join, retire messages."""
        if self._ceased:
            return None
        if round_index == 0:
            return self._codec.pack(tag=_TAG_ANNOUNCE, node=self.ctx.node_id, value=0)
        _, phase = divmod(round_index - 1, _PHASES)
        if phase == 0:
            self._ticket = random_bits(self.ctx.rng, self._value_bits)
            self._neighbor_tickets = {}
            self._joining = False
            return self._codec.pack(
                tag=_TAG_TICKET, node=self.ctx.node_id, value=self._ticket
            )
        if phase == 1 and self._joining:
            return self._codec.pack(tag=_TAG_JOIN, node=self.ctx.node_id, value=0)
        if phase == 2 and self._in_mis is False:
            return self._codec.pack(tag=_TAG_RETIRE, node=self.ctx.node_id, value=0)
        return None

    def receive(self, round_index: int, messages: list[int]) -> None:
        """Track active neighbours, local minima, joins and retirements."""
        if self._ceased:
            return
        unpacked = [self._codec.unpack(m) for m in messages]
        if round_index == 0:
            self._active_neighbors = {
                fields["node"]
                for fields in unpacked
                if fields["tag"] == _TAG_ANNOUNCE
            }
            if not self._active_neighbors:
                self._in_mis = True
                self._ceased = True
            return
        iteration, phase = divmod(round_index - 1, _PHASES)
        assert self._max_iterations is not None
        if iteration >= self._max_iterations:
            self._ceased = True
            return
        if phase == 0:
            for fields in unpacked:
                if (
                    fields["tag"] == _TAG_TICKET
                    and fields["node"] in self._active_neighbors
                ):
                    self._neighbor_tickets[fields["node"]] = fields["value"]
            assert self._ticket is not None
            own = (self._ticket, self.ctx.node_id)
            self._joining = all(
                own < (value, node)
                for node, value in self._neighbor_tickets.items()
            )
        elif phase == 1:
            if self._joining:
                self._in_mis = True
                return
            for fields in unpacked:
                if (
                    fields["tag"] == _TAG_JOIN
                    and fields["node"] in self._active_neighbors
                ):
                    self._in_mis = False
                    self._active_neighbors.discard(fields["node"])
        else:
            for fields in unpacked:
                if fields["tag"] == _TAG_RETIRE:
                    self._active_neighbors.discard(fields["node"])
            if self._in_mis is not None:
                self._ceased = True
            elif not self._active_neighbors:
                self._in_mis = True
                self._ceased = True

    @property
    def finished(self) -> bool:
        return self._ceased

    def output(self) -> object:
        """``True`` if the node is in the MIS, ``False`` if covered."""
        return self._in_mis


def make_mis_algorithms(
    topology: Topology, ids: Sequence[int] | None = None
) -> tuple[list[LubyMISBC], int]:
    """Build per-node MIS algorithms plus the message budget they need."""
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    id_bits, value_bits = mis_field_widths(n, ids)
    algorithms = [
        LubyMISBC(id_bits=id_bits, value_bits=value_bits) for _ in range(n)
    ]
    return algorithms, 2 + id_bits + value_bits


def _round_budget(num_nodes: int) -> int:
    """The rounds :func:`run_mis_bc` allows: an ID round, ``O(log n)`` iterations."""
    iterations = 8 * max(1, math.ceil(math.log2(max(2, num_nodes)))) + 8
    return 1 + _PHASES * iterations


def run_mis_bc(
    topology: Topology,
    seed: int = 0,
    ids: Sequence[int] | None = None,
) -> RunResult:
    """Run Luby's MIS on a native Broadcast CONGEST network.

    Executes the columnar :class:`~repro.algorithms.vectorized_mis.
    VectorizedLubyMIS`, which is bit-identical per seed to
    :func:`make_mis_algorithms` on the per-node engine.
    """
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    id_bits, value_bits = mis_field_widths(n, ids)
    network = VectorizedBroadcastNetwork(
        topology, ids=ids, message_bits=2 + id_bits + value_bits, seed=seed
    )
    return network.run(
        VectorizedLubyMIS(id_bits=id_bits, value_bits=value_bits),
        max_rounds=_round_budget(n),
    )

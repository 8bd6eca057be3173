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

:class:`VectorizedLubyMIS` holds the whole network's state in numpy
columns.  Ticket draws come from :class:`~repro.rng_philox.NodeStreams`,
which reproduces each node's ``derive_rng`` byte stream exactly, so
per-seed runs are bit-identical to the per-node oracle the tests keep in
``tests/algorithms/per_node_oracle.py`` — outputs, rounds used and
messages sent.  The active-neighbour sets become a boolean mask over the
CSR edge slots; membership tests on *claimed* sender IDs (the model is
unattributed — IDs ride in the messages) resolve through a vectorized
``(receiver, id) -> slot`` lookup.  Claimed IDs that are not neighbours
at all can only appear via corrupted decodes on the beeping substrate;
they are tracked in per-node "phantom" sets so even that path matches
the oracle's set semantics.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..congest.model import required_bits
from ..congest.network import RunResult
from ..congest.vectorized import (
    VectorContext,
    VectorizedBroadcastAlgorithm,
    VectorizedBroadcastNetwork,
    WordCodec,
    inbox_receivers,
    words_less_equal_mask,
)
from ..errors import ConfigurationError
from ..graphs import Topology
from ..rng_philox import words_for_bits

__all__ = [
    "VectorizedLubyMIS",
    "mis_field_widths",
    "mis_message_bits",
    "run_mis_bc",
]


def mis_field_widths(
    num_nodes: int, ids: "Sequence[int] | None" = None
) -> tuple[int, int]:
    """The MIS codec's ``(id_bits, value_bits)`` — the one budget source.

    Shared by :func:`mis_message_bits`, :func:`run_mis_bc` and the sweep
    workloads, so every run of the MIS sizes its fields the same way for
    the same network.
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


def _iteration_cap(num_nodes: int) -> int:
    """The ``O(log n)`` iteration bound: ``8 log₂ n`` plus slack."""
    return 8 * max(1, math.ceil(math.log2(max(2, num_nodes)))) + 8


class VectorizedLubyMIS(VectorizedBroadcastAlgorithm):
    """Luby's MIS over unattributed broadcasts, with columnar state.

    ``id_bits`` and ``value_bits`` are the field widths of the
    ``⟨tag, ID, ticket⟩`` codec (:func:`mis_field_widths`); the
    iteration cap is ``8 log₂ n + 8``, derived from the network.
    """

    def __init__(self, id_bits: int, value_bits: int) -> None:
        self._id_bits = id_bits
        self._value_bits = value_bits

    def setup(self, net: VectorContext) -> None:
        """Initialise the columnar state and per-node draw streams."""
        super().setup(net)
        self._codec = WordCodec(
            [("tag", 2), ("node", self._id_bits), ("value", self._value_bits)]
        )
        if self._codec.width > net.message_bits:
            raise ConfigurationError(
                f"MIS needs {self._codec.width}-bit messages, budget is "
                f"{net.message_bits}"
            )
        n = net.num_nodes
        self._max_iterations = _iteration_cap(n)
        self._ids_u64 = net.ids.astype(np.uint64)
        self._streams = net.node_streams()
        self._value_words = words_for_bits(self._value_bits)
        self._ceased = np.zeros(n, dtype=bool)
        self._in_mis = np.full(n, -1, dtype=np.int8)  # -1 undecided / 0 / 1
        self._joining = np.zeros(n, dtype=bool)
        self._ticket = np.zeros((n, self._value_words), dtype=np.uint64)
        self._nbr_active = np.zeros(net.edge_src.size, dtype=bool)
        self._phantoms: dict[int, set[int]] = {}

    # ----- helpers ----------------------------------------------------------

    def _active_counts(self) -> np.ndarray:
        """Per-node size of the active-neighbour set (slots + phantoms)."""
        counts = np.bincount(
            self.net.edge_dst[self._nbr_active], minlength=self.net.num_nodes
        )
        for node, extras in self._phantoms.items():
            counts[node] += len(extras)
        return counts

    def _membership(
        self, receivers: np.ndarray, claimed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Which ``(receiver, claimed ID)`` entries are active neighbours.

        Returns ``(member, slot)``: the membership mask (including
        phantom IDs) and the CSR slot per entry (``-1`` for phantoms).
        """
        index = self.net.index_of_ids(claimed)
        slot = self.net.slot_of(receivers, index)
        member = (slot >= 0) & self._nbr_active[np.maximum(slot, 0)]
        if self._phantoms:
            for position in np.flatnonzero(slot < 0):
                extras = self._phantoms.get(int(receivers[position]))
                if extras and int(claimed[position]) in extras:
                    member[position] = True
        return member, slot

    def _discard(self, receivers: np.ndarray, claimed: np.ndarray) -> None:
        """Remove ``claimed`` from each receiver's active-neighbour set."""
        index = self.net.index_of_ids(claimed)
        slot = self.net.slot_of(receivers, index)
        self._nbr_active[slot[slot >= 0]] = False
        if self._phantoms:
            for position in np.flatnonzero(slot < 0):
                extras = self._phantoms.get(int(receivers[position]))
                if extras:
                    extras.discard(int(claimed[position]))

    # ----- protocol ---------------------------------------------------------

    def broadcast_step(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Announce, then per iteration: ticket, join, retire broadcasts."""
        n = self.net.num_nodes
        alive = ~self._ceased
        if round_index == 0:
            messages = self._codec.pack(
                n, tag=_TAG_ANNOUNCE, node=self._ids_u64, value=0
            )
            return messages, alive
        _, phase = divmod(round_index - 1, _PHASES)
        if phase == 0:
            drawers = np.flatnonzero(alive)
            self._ticket[drawers] = self._streams.draw(drawers, self._value_bits)
            self._joining[:] = False
            messages = self._codec.pack(
                n,
                tag=_TAG_TICKET,
                node=self._ids_u64,
                value=self._ticket,
            )
            return messages, alive
        if phase == 1:
            messages = self._codec.pack(
                n, tag=_TAG_JOIN, node=self._ids_u64, value=0
            )
            return messages, alive & self._joining
        messages = self._codec.pack(
            n, tag=_TAG_RETIRE, node=self._ids_u64, value=0
        )
        return messages, alive & (self._in_mis == 0)

    def receive_step(
        self, round_index: int, inbox_indptr: np.ndarray, inbox: np.ndarray
    ) -> None:
        """The reference's per-phase receive logic, as vector ops."""
        alive = ~self._ceased
        receivers = inbox_receivers(inbox_indptr)
        tag = self._codec.unpack(inbox, "tag")
        claimed = self._codec.unpack(inbox, "node").astype(np.int64)
        open_inbox = alive[receivers]
        if round_index == 0:
            self._receive_announcements(
                receivers, tag, claimed, open_inbox, alive
            )
            return
        iteration, phase = divmod(round_index - 1, _PHASES)
        if iteration >= self._max_iterations:
            self._ceased[alive] = True
            return
        if phase == 0:
            value = self._codec.unpack(inbox, "value")
            if value.ndim == 1:
                value = value[:, None]
            self._receive_tickets(receivers, tag, claimed, value, open_inbox, alive)
        elif phase == 1:
            keep = open_inbox & (tag == _TAG_JOIN) & ~self._joining[receivers]
            member, _ = self._membership(receivers[keep], claimed[keep])
            self._in_mis[self._joining & alive] = 1
            hit = np.flatnonzero(keep)[member]
            self._in_mis[receivers[hit]] = 0
            self._discard(receivers[hit], claimed[hit])
        else:
            keep = open_inbox & (tag == _TAG_RETIRE)
            self._discard(receivers[keep], claimed[keep])
            decided = alive & (self._in_mis != -1)
            self._ceased |= decided
            lonely = alive & ~decided & (self._active_counts() == 0)
            self._in_mis[lonely] = 1
            self._ceased |= lonely

    def _receive_announcements(
        self,
        receivers: np.ndarray,
        tag: np.ndarray,
        claimed: np.ndarray,
        open_inbox: np.ndarray,
        alive: np.ndarray,
    ) -> None:
        """Round 0: learn the active-neighbour sets from announcements."""
        keep = open_inbox & (tag == _TAG_ANNOUNCE)
        index = self.net.index_of_ids(claimed[keep])
        slot = self.net.slot_of(receivers[keep], index)
        self._nbr_active[slot[slot >= 0]] = True
        for position in np.flatnonzero(slot < 0):
            node = int(receivers[keep][position])
            self._phantoms.setdefault(node, set()).add(
                int(claimed[keep][position])
            )
        lonely = alive & (self._active_counts() == 0)
        self._in_mis[lonely] = 1
        self._ceased |= lonely

    def _receive_tickets(
        self,
        receivers: np.ndarray,
        tag: np.ndarray,
        claimed: np.ndarray,
        value: np.ndarray,
        open_inbox: np.ndarray,
        alive: np.ndarray,
    ) -> None:
        """Collect active-neighbour tickets; decide who joins the MIS.

        A node joins iff its own ``(ticket, ID)`` is strictly below every
        collected ``(ticket, ID)``.  Duplicate claimed IDs keep the last
        occurrence, matching the reference's dict overwrite.
        """
        keep = open_inbox & (tag == _TAG_TICKET)
        member, _ = self._membership(receivers[keep], claimed[keep])
        kept = np.flatnonzero(keep)[member]
        entry_receiver = receivers[kept]
        entry_claimed = claimed[kept]
        entry_value = value[kept]
        # Last-per-(receiver, claimed) wins, like the reference's dict.
        order = np.lexsort((entry_claimed, entry_receiver))
        ordered_r = entry_receiver[order]
        ordered_c = entry_claimed[order]
        last = np.ones(order.size, dtype=bool)
        if order.size > 1:
            last[:-1] = (ordered_r[:-1] != ordered_r[1:]) | (
                ordered_c[:-1] != ordered_c[1:]
            )
        final = order[last]
        entry_receiver = entry_receiver[final]
        entry_claimed = entry_claimed[final]
        entry_value = entry_value[final]
        # Per-receiver minimum of (value, claimed), lexicographic.
        keys = (entry_claimed,) + tuple(
            entry_value[:, word] for word in range(entry_value.shape[1])
        ) + (entry_receiver,)
        rank = np.lexsort(keys)
        sorted_receiver = entry_receiver[rank]
        first = np.ones(rank.size, dtype=bool)
        first[1:] = sorted_receiver[1:] != sorted_receiver[:-1]
        best = rank[first]
        best_receiver = entry_receiver[best]
        own_value = self._ticket[best_receiver]
        min_value = entry_value[best]
        own_less, equal = words_less_equal_mask(own_value, min_value)
        own_wins = own_less | (
            equal & (self.net.ids[best_receiver] < entry_claimed[best])
        )
        self._joining[alive] = True
        self._joining[best_receiver] = own_wins
        self._joining &= alive

    def finished_mask(self) -> np.ndarray:
        """Nodes cease once decided (or at the iteration cap)."""
        return self._ceased

    def outputs(self) -> list[object]:
        """``True`` in the MIS, ``False`` covered, ``None`` undecided."""
        return [
            None if decided == -1 else bool(decided) for decided in self._in_mis
        ]


def _round_budget(num_nodes: int) -> int:
    """The rounds :func:`run_mis_bc` allows: an ID round, ``O(log n)`` iterations."""
    return 1 + _PHASES * _iteration_cap(num_nodes)


def run_mis_bc(
    topology: Topology,
    seed: int = 0,
    ids: Sequence[int] | None = None,
) -> RunResult:
    """Run Luby's MIS on a native Broadcast CONGEST network.

    Executes :class:`VectorizedLubyMIS` over the perfect channel with
    the budget of :func:`mis_message_bits`.
    """
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    id_bits, value_bits = mis_field_widths(n, ids)
    network = VectorizedBroadcastNetwork(
        topology, ids=ids, message_bits=mis_message_bits(n, ids), seed=seed
    )
    return network.run(
        VectorizedLubyMIS(id_bits=id_bits, value_bits=value_bits),
        max_rounds=_round_budget(n),
    )

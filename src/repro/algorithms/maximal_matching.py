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

:class:`VectorizedMaximalMatching` runs the whole network's state as
numpy columns:

* the per-node edge sets become one boolean mask over CSR edge slots;
* the ``x(e) ∈ [n⁹]`` samples come from :class:`~repro.rng_philox.
  NodeStreams` (bit-identical to each node's ``derive_rng`` stream) and
  live as multi-word uint64 columns, compared lexicographically — the
  paper's samples are wider than a machine word, so the wire plane is a
  ``(n, W)`` word plane;
* each Propose/Reply/Confirm/Echo sub-round is a handful of sorts,
  segment reductions and scatter stores instead of ``n`` object calls.

Per-seed runs are bit-identical to the per-node oracle the tests keep in
``tests/algorithms/per_node_oracle.py``: same outputs, same rounds used,
same message counts (property-tested across the topology zoo, and over
noisy beeps).  Claimed IDs that are no node's ID — possible only via
corrupted decodes on the beeping substrate — fall back to per-node
"phantom" sets so even that path mirrors the oracle's set semantics.
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
    "UNMATCHED",
    "VectorizedMaximalMatching",
    "matching_field_widths",
    "matching_message_bits",
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


def matching_field_widths(
    num_nodes: int,
    ids: Sequence[int] | None = None,
    value_exponent: int = 9,
) -> tuple[int, int]:
    """The matching codec's ``(id_bits, value_bits)``.

    Shared by :func:`matching_message_bits`, :func:`run_matching_bc` and
    the sweep workloads, so every run of Algorithm 3 sizes its fields
    the same way for the same network.
    """
    max_id = max(ids) if ids is not None else num_nodes - 1
    id_bits = required_bits(max_id + 1)
    value_bits = max(1, value_exponent * required_bits(max(2, num_nodes)))
    return id_bits, value_bits


def matching_message_bits(
    num_nodes: int,
    ids: Sequence[int] | None = None,
    value_exponent: int = 9,
) -> int:
    """Message budget Algorithm 3 needs: a tag, two IDs, and an ``[n⁹]``
    sample — ``O(log n)`` bits with the paper's ``x(e) ∈ [n⁹]``
    (``value_exponent`` trades the paper's collision bound for width).

    The field widths are :func:`matching_field_widths`' for the same
    arguments.
    """
    id_bits, value_bits = matching_field_widths(num_nodes, ids, value_exponent)
    return 2 + 2 * id_bits + value_bits


def _iteration_cap(num_nodes: int) -> int:
    """Lemma 20's ``O(log n)`` iteration bound: ``4 log₂ n`` plus slack."""
    return 4 * max(1, math.ceil(math.log2(max(2, num_nodes)))) + 4


class VectorizedMaximalMatching(VectorizedBroadcastAlgorithm):
    """The whole network's Algorithm 3 state, columnar.

    Parameters
    ----------
    id_bits:
        Width of the ID fields (IDs across the network must fit).
    value_bits:
        Width of the sampled-value field (the paper's ``[n⁹]``).

    :func:`matching_field_widths` gives both.  The iteration cap is the
    Lemma 20 bound ``4 log₂ n`` plus slack, derived from the network.
    """

    def __init__(self, id_bits: int, value_bits: int) -> None:
        self._id_bits = id_bits
        self._value_bits = value_bits

    def setup(self, net: VectorContext) -> None:
        """Initialise columnar state, edge permutations and draw streams."""
        super().setup(net)
        self._codec = WordCodec(
            [
                ("tag", 2),
                ("hi", self._id_bits),
                ("lo", self._id_bits),
                ("value", self._value_bits),
            ]
        )
        if self._codec.width > net.message_bits:
            raise ConfigurationError(
                f"matching needs {self._codec.width}-bit messages, budget is "
                f"{net.message_bits}; see matching_message_bits()"
            )
        n = net.num_nodes
        self._max_iterations = _iteration_cap(n)
        self._streams = net.node_streams()
        self._value_words = words_for_bits(self._value_bits)
        self._ceased = np.zeros(n, dtype=bool)
        self._matched = np.full(n, -1, dtype=np.int64)
        self._has_prop = np.zeros(n, dtype=bool)
        self._prop_partner = np.full(n, -1, dtype=np.int64)
        self._prop_value = np.zeros((n, self._value_words), dtype=np.uint64)
        self._reply_target = np.full(n, -1, dtype=np.int64)
        self._sent_reply = np.zeros(n, dtype=bool)
        self._has_pc = np.zeros(n, dtype=bool)
        self._pc_partner = np.full(n, -1, dtype=np.int64)
        self._has_echo = np.zeros(n, dtype=bool)
        self._echo_hi = np.full(n, -1, dtype=np.int64)
        self._echo_lo = np.full(n, -1, dtype=np.int64)
        # The per-node edge set, one flag per incoming CSR slot; announced
        # into existence at round 0 (exactly like the reference's sets).
        self._edge_alive = np.zeros(net.edge_src.size, dtype=bool)
        self._phantoms: dict[int, set[int]] = {}
        # Candidate order: slots grouped by receiver, ascending neighbour
        # *ID* — the order the reference draws samples in.
        self._ids_u64 = net.ids.astype(np.uint64)
        nid = net.ids[net.edge_src]
        self._cand_perm = np.lexsort((nid, net.edge_dst))
        self._cand_dst = net.edge_dst[self._cand_perm]
        self._cand_nid = nid[self._cand_perm]
        self._cand_lower = self._cand_nid < net.ids[self._cand_dst]

    # ----- helpers ----------------------------------------------------------

    def _edge_counts(self) -> np.ndarray:
        """Per-node size of the live edge set (slots + phantoms)."""
        counts = np.bincount(
            self.net.edge_dst[self._edge_alive], minlength=self.net.num_nodes
        )
        for node, extras in self._phantoms.items():
            counts[node] += len(extras)
        return counts

    def _discard_edges(self, receivers: np.ndarray, claimed: np.ndarray) -> None:
        """Remove the edge to each claimed ID from each receiver's set."""
        index = self.net.index_of_ids(claimed)
        slot = self.net.slot_of(receivers, index)
        self._edge_alive[slot[slot >= 0]] = False
        if self._phantoms:
            for position in np.flatnonzero(slot < 0):
                extras = self._phantoms.get(int(receivers[position]))
                if extras:
                    extras.discard(int(claimed[position]))

    def _candidate_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-proposer candidate list: ``(node, partner ID)`` entries.

        Grouped by node in ascending partner-ID order — the reference's
        ``sorted(self._lower_neighbors)`` draw order.  Falls back to a
        per-node merge when phantom IDs exist (beeping corruption only).
        """
        selected = (
            self._edge_alive[self._cand_perm]
            & self._cand_lower
            & ~self._ceased[self._cand_dst]
        )
        nodes = self._cand_dst[selected]
        partners = self._cand_nid[selected]
        lower_phantoms = {
            node: sorted(
                extra
                for extra in extras
                if extra < int(self.net.ids[node])
            )
            for node, extras in self._phantoms.items()
            if not self._ceased[node]
        }
        if not any(lower_phantoms.values()):
            return nodes, partners
        merged_nodes: list[int] = []
        merged_partners: list[int] = []
        cursor = 0
        for node in range(self.net.num_nodes):
            real: list[int] = []
            while cursor < nodes.size and nodes[cursor] == node:
                real.append(int(partners[cursor]))
                cursor += 1
            combined = sorted(real + lower_phantoms.get(node, []))
            merged_nodes.extend([node] * len(combined))
            merged_partners.extend(combined)
        return (
            np.asarray(merged_nodes, dtype=np.int64),
            np.asarray(merged_partners, dtype=np.int64),
        )

    # ----- protocol ---------------------------------------------------------

    def broadcast_step(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Announce, then per iteration: Propose/Reply/Confirm/Echo."""
        n = self.net.num_nodes
        ids = self._ids_u64
        alive = ~self._ceased
        if round_index == 0:
            messages = self._codec.pack(
                n, tag=_TAG_ANNOUNCE, hi=ids, lo=0, value=0
            )
            return messages, alive
        iteration, phase = divmod(round_index - 1, _PHASES)
        if iteration >= self._max_iterations:
            return (
                np.zeros((n, self._codec.words), dtype=np.uint64),
                np.zeros(n, dtype=bool),
            )
        if phase == 0:
            return self._broadcast_proposals(alive)
        if phase == 1:
            active = alive & (self._reply_target >= 0)
            self._sent_reply |= active
            partner = np.maximum(self._reply_target, 0).astype(np.uint64)
            messages = self._codec.pack(
                n,
                tag=_TAG_REPLY,
                hi=np.maximum(ids, partner),
                lo=np.minimum(ids, partner),
                value=0,
            )
            return messages, active
        if phase == 2:
            active = alive & self._has_pc
            partner = np.maximum(self._pc_partner, 0).astype(np.uint64)
            messages = self._codec.pack(
                n,
                tag=_TAG_CONFIRM,
                hi=np.maximum(ids, partner),
                lo=np.minimum(ids, partner),
                value=0,
            )
            return messages, active
        active = alive & self._has_echo
        messages = self._codec.pack(
            n,
            tag=_TAG_CONFIRM,
            hi=np.maximum(self._echo_hi, 0).astype(np.uint64),
            lo=np.maximum(self._echo_lo, 0).astype(np.uint64),
            value=0,
        )
        return messages, active

    def _broadcast_proposals(self, alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Propose sub-round: draw samples, propose unique minima."""
        n = self.net.num_nodes
        # Reset the per-iteration handshake state (reference does this in
        # _broadcast_propose for every non-ceased node).
        self._has_prop[alive] = False
        self._prop_partner[alive] = -1
        self._reply_target[alive] = -1
        self._sent_reply[alive] = False
        self._has_pc[alive] = False
        self._pc_partner[alive] = -1
        self._has_echo[alive] = False
        self._echo_hi[alive] = -1
        self._echo_lo[alive] = -1
        nodes, partners = self._candidate_entries()
        draws = self._streams.draw(nodes, self._value_bits)
        if nodes.size:
            keys = (
                (partners,)
                + tuple(draws[:, word] for word in range(self._value_words))
                + (nodes,)
            )
            order = np.lexsort(keys)
            sorted_nodes = nodes[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = sorted_nodes[1:] != sorted_nodes[:-1]
            best = order[first]
            # The paper proposes only when the minimum sample is unique.
            follower = np.flatnonzero(first) + 1
            has_second = follower < order.size
            second = order[follower[has_second]]
            tie = np.zeros(best.size, dtype=bool)
            tie[has_second] = np.all(
                draws[best[has_second]] == draws[second], axis=1
            ) & (sorted_nodes[follower[has_second]] == nodes[best[has_second]])
            winners = best[~tie]
            proposers = nodes[winners]
            self._has_prop[proposers] = True
            self._prop_partner[proposers] = partners[winners]
            self._prop_value[proposers] = draws[winners]
        messages = self._codec.pack(
            n,
            tag=_TAG_PROPOSE,
            hi=self._ids_u64,
            lo=np.maximum(self._prop_partner, 0).astype(np.uint64),
            value=self._prop_value,
        )
        return messages, self._has_prop & alive

    def receive_step(
        self, round_index: int, inbox_indptr: np.ndarray, inbox: np.ndarray
    ) -> None:
        """The reference's per-phase receive logic, as vector ops."""
        alive = ~self._ceased
        receivers = inbox_receivers(inbox_indptr)
        tag = self._codec.unpack(inbox, "tag")
        hi = self._codec.unpack(inbox, "hi").astype(np.int64)
        lo = self._codec.unpack(inbox, "lo").astype(np.int64)
        open_inbox = alive[receivers]
        if round_index == 0:
            keep = open_inbox & (tag == _TAG_ANNOUNCE)
            index = self.net.index_of_ids(hi[keep])
            slot = self.net.slot_of(receivers[keep], index)
            self._edge_alive[slot[slot >= 0]] = True
            for position in np.flatnonzero(slot < 0):
                node = int(receivers[keep][position])
                self._phantoms.setdefault(node, set()).add(
                    int(hi[keep][position])
                )
            lonely = alive & (self._edge_counts() == 0)
            self._ceased |= lonely
            return
        iteration, phase = divmod(round_index - 1, _PHASES)
        if iteration >= self._max_iterations:
            self._ceased[alive] = True
            return
        if phase == 0:
            value = self._codec.unpack(inbox, "value")
            if value.ndim == 1:
                value = value[:, None]
            self._receive_proposals(receivers, tag, hi, lo, value, open_inbox)
        elif phase == 1:
            self._receive_replies(receivers, tag, hi, lo, open_inbox)
        else:
            self._receive_confirms(receivers, tag, hi, lo, open_inbox)
            if phase == 3:
                self._end_iteration(alive)

    def _receive_proposals(
        self,
        receivers: np.ndarray,
        tag: np.ndarray,
        hi: np.ndarray,
        lo: np.ndarray,
        value: np.ndarray,
        open_inbox: np.ndarray,
    ) -> None:
        """Pick each node's best incoming proposal; decide who replies."""
        keep = np.flatnonzero(
            open_inbox
            & (tag == _TAG_PROPOSE)
            & (lo == self.net.ids[receivers])
        )
        if keep.size == 0:
            return
        entry_receiver = receivers[keep]
        entry_hi = hi[keep]
        entry_value = value[keep]
        keys = (
            (entry_hi,)
            + tuple(entry_value[:, word] for word in range(entry_value.shape[1]))
            + (entry_receiver,)
        )
        rank = np.lexsort(keys)
        sorted_receiver = entry_receiver[rank]
        first = np.ones(rank.size, dtype=bool)
        first[1:] = sorted_receiver[1:] != sorted_receiver[:-1]
        best = rank[first]
        best_receiver = entry_receiver[best]
        best_less, _ = words_less_equal_mask(
            entry_value[best], self._prop_value[best_receiver]
        )
        wins = ~self._has_prop[best_receiver] | best_less
        target = best_receiver[wins]
        self._reply_target[target] = entry_hi[best[wins]]

    def _receive_replies(
        self,
        receivers: np.ndarray,
        tag: np.ndarray,
        hi: np.ndarray,
        lo: np.ndarray,
        open_inbox: np.ndarray,
    ) -> None:
        """A proposer that hears a reply for its edge pends a confirm."""
        candidate = self._has_prop & ~self._sent_reply & ~self._ceased
        own = self.net.ids[receivers]
        partner = self._prop_partner[receivers]
        edge_match = ((hi == own) & (lo == partner)) | (
            (hi == partner) & (lo == own)
        )
        keep = open_inbox & (tag == _TAG_REPLY) & candidate[receivers] & edge_match
        confirmed = receivers[keep]
        self._has_pc[confirmed] = True
        self._pc_partner[confirmed] = self._prop_partner[confirmed]

    def _receive_confirms(
        self,
        receivers: np.ndarray,
        tag: np.ndarray,
        hi: np.ndarray,
        lo: np.ndarray,
        open_inbox: np.ndarray,
    ) -> None:
        """Echo confirms of our own edge; drop edges to matched nodes."""
        keep = open_inbox & (tag == _TAG_CONFIRM)
        own = self.net.ids[receivers]
        mine = keep & ((hi == own) | (lo == own))
        others = np.flatnonzero(keep & ~mine)
        if others.size:
            self._discard_edges(
                np.concatenate((receivers[others], receivers[others])),
                np.concatenate((hi[others], lo[others])),
            )
        entries = np.flatnonzero(
            mine
            & ~self._has_pc[receivers]
            & ~self._has_echo[receivers]
            & self._sent_reply[receivers]
        )
        if entries.size == 0:
            return
        partner = np.where(own[entries] == hi[entries], lo[entries], hi[entries])
        entries = entries[partner == self._reply_target[receivers[entries]]]
        # Reverse so the first matching message per node wins the scatter,
        # matching the reference's first-assignment semantics.
        entries = entries[::-1]
        echoers = receivers[entries]
        self._has_echo[echoers] = True
        self._echo_hi[echoers] = hi[entries]
        self._echo_lo[echoers] = lo[entries]

    def _end_iteration(self, alive: np.ndarray) -> None:
        """Close the iteration: settle matches, retire edgeless nodes."""
        confirmed = alive & self._has_pc
        self._matched[confirmed] = self._pc_partner[confirmed]
        echoed = alive & ~self._has_pc & self._has_echo
        own = self.net.ids
        self._matched[echoed] = np.where(
            own == self._echo_lo, self._echo_hi, self._echo_lo
        )[echoed]
        retired = (
            alive & ~confirmed & ~echoed & (self._edge_counts() == 0)
        )
        self._ceased |= confirmed | echoed | retired

    def finished_mask(self) -> np.ndarray:
        """Nodes cease once matched, edgeless, or at the iteration cap."""
        return self._ceased

    def outputs(self) -> list[object]:
        """The matched partner's ID, or :data:`UNMATCHED`, per node."""
        return [
            UNMATCHED if partner < 0 else partner
            for partner in self._matched.tolist()
        ]


def _round_budget(num_nodes: int) -> int:
    """The rounds :func:`run_matching_bc` allows (Lemma 20's ``O(log n)``)."""
    return 1 + _PHASES * _iteration_cap(num_nodes)


def run_matching_bc(
    topology: Topology,
    seed: int = 0,
    ids: Sequence[int] | None = None,
    value_exponent: int = 9,
) -> RunResult:
    """Run Algorithm 3 on a native Broadcast CONGEST network.

    Executes :class:`VectorizedMaximalMatching` over the perfect channel
    with the budget of :func:`matching_message_bits`.
    """
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    id_bits, value_bits = matching_field_widths(
        n, ids, value_exponent=value_exponent
    )
    network = VectorizedBroadcastNetwork(
        topology,
        ids=ids,
        message_bits=matching_message_bits(n, ids, value_exponent),
        seed=seed,
    )
    return network.run(
        VectorizedMaximalMatching(id_bits=id_bits, value_bits=value_bits),
        max_rounds=_round_budget(n),
    )

"""The per-node oracle of the Broadcast CONGEST algorithms.

The executable specification the array-native engine is held to:
:class:`BroadcastCongestNetwork`, one Python object per node in
lock-step rounds, and the per-node algorithms it drives —
:class:`MaximalMatchingBC` (the paper's Algorithm 3), :class:`LubyMISBC`,
:class:`BFSTreeBC` and :class:`LeaderElectionBC`, each built with the
message budget it needs by its ``make_*_algorithms``.  The library runs
one columnar implementation per algorithm (:mod:`repro.algorithms`);
these per-node twins exist only to be compared against.

Each oracle function at the end runs the same algorithm as its
``run_*_bc`` entry point, with the same message budget, round budget,
IDs and seed, on :class:`BroadcastCongestNetwork`.  Round budgets come
from each module's ``_round_budget``, so they cannot drift from the
entry points.  Colouring has no columnar twin: its oracle drives the
library's own :class:`~repro.algorithms.coloring.ColoringBC` objects.
"""

from __future__ import annotations

import math
from typing import Sequence

import repro.algorithms.bfs as bfs_module
import repro.algorithms.coloring as coloring_module
import repro.algorithms.leader_election as leader_module
import repro.algorithms.luby_mis as mis_module
import repro.algorithms.maximal_matching as matching_module
from repro.algorithms import (
    UNMATCHED,
    bfs_field_widths,
    matching_field_widths,
    matching_message_bits,
    mis_field_widths,
    mis_message_bits,
)
from repro.congest import (
    BroadcastCongestAlgorithm,
    MessageCodec,
    NodeContext,
    RunResult,
    check_message,
    required_bits,
)
from repro.congest.network import _EngineBase
from repro.errors import ConfigurationError
from repro.graphs import Topology
from repro.rng import random_bits

# The wire tags and sub-rounds per iteration, equal to the columnar
# implementations' so runs over beeps compare message for message.
_TAG_ANNOUNCE = 0
# Algorithm 3: Propose, Reply, Confirm (and its Echo).
_TAG_PROPOSE = 1
_TAG_REPLY = 2
_TAG_CONFIRM = 3
_PHASES = 4
# Luby's MIS: Ticket, Join, Retire.
_TAG_TICKET = 1
_TAG_JOIN = 2
_TAG_RETIRE = 3
_MIS_PHASES = 3


class BroadcastCongestNetwork(_EngineBase):
    """Synchronous Broadcast CONGEST engine.

    Each round, every unfinished node's broadcast (if any) is delivered to
    all of its neighbours as part of an unattributed message list.
    """

    def run(
        self,
        algorithms: Sequence[BroadcastCongestAlgorithm],
        max_rounds: int,
    ) -> RunResult:
        """Drive the per-node algorithms for up to ``max_rounds`` rounds."""
        n = self._topology.num_nodes
        if len(algorithms) != n:
            raise ConfigurationError(f"got {len(algorithms)} algorithms for {n} nodes")
        for index, algorithm in enumerate(algorithms):
            algorithm.setup(self._context(index, with_neighbor_ids=False))
        # Live-node accounting: ``done`` caches each node's last observed
        # ``finished`` state and ``live`` counts the rest, updated at the
        # points the engine queries ``finished`` anyway — so the round
        # loop never rescans all n nodes just to decide whether to stop.
        done = [algorithm.finished for algorithm in algorithms]
        live = done.count(False)
        rounds_used = 0
        messages_sent = 0
        for round_index in range(max_rounds):
            if live == 0:
                break
            broadcasts: list[int | None] = []
            for index, algorithm in enumerate(algorithms):
                message = None
                if not done[index]:
                    if algorithm.finished:
                        done[index] = True
                        live -= 1
                    else:
                        message = algorithm.broadcast(round_index)
                if message is not None:
                    check_message(message, self._message_bits)
                    messages_sent += 1
                broadcasts.append(message)
            for index, algorithm in enumerate(algorithms):
                if done[index]:
                    continue
                if algorithm.finished:
                    done[index] = True
                    live -= 1
                    continue
                inbox = [
                    broadcasts[int(u)]
                    for u in self._topology.neighbors[index]
                    if broadcasts[int(u)] is not None
                ]
                algorithm.receive(round_index, inbox)  # type: ignore[arg-type]
                if algorithm.finished:
                    done[index] = True
                    live -= 1
            rounds_used += 1
        return RunResult(
            outputs=[a.output() for a in algorithms],
            rounds_used=rounds_used,
            messages_sent=messages_sent,
            finished=live == 0,
        )


def _codec(id_bits: int, value_bits: int) -> MessageCodec:
    return MessageCodec(
        [
            ("tag", 2),
            ("hi", id_bits),
            ("lo", id_bits),
            ("value", value_bits),
        ]
    )


class MaximalMatchingBC(BroadcastCongestAlgorithm):
    """One node of Algorithm 3.

    Parameters
    ----------
    id_bits:
        Width of the ID fields (IDs across the network must fit).
    value_bits:
        Width of the sampled-value field (the paper's ``[n⁹]``).

    The iteration cap is the Lemma 20 bound ``4 log₂ n`` plus slack,
    derived from the context.
    """

    def __init__(self, id_bits: int, value_bits: int) -> None:
        self._id_bits = id_bits
        self._value_bits = value_bits
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
) -> tuple[list[MaximalMatchingBC], int]:
    """Build per-node matching algorithms plus the message budget they need."""
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    id_bits, value_bits = matching_field_widths(
        n, ids, value_exponent=value_exponent
    )
    algorithms = [
        MaximalMatchingBC(id_bits=id_bits, value_bits=value_bits)
        for _ in range(n)
    ]
    return algorithms, matching_message_bits(n, ids, value_exponent)


class LubyMISBC(BroadcastCongestAlgorithm):
    """One node of Luby's MIS algorithm over unattributed broadcasts."""

    def __init__(self, id_bits: int, value_bits: int) -> None:
        self._id_bits = id_bits
        self._value_bits = value_bits
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
        self._max_iterations = 8 * max(
            1, math.ceil(math.log2(max(2, ctx.num_nodes)))
        ) + 8

    def broadcast(self, round_index: int) -> int | None:
        """Announce, then per iteration: ticket, join, retire messages."""
        if self._ceased:
            return None
        if round_index == 0:
            return self._codec.pack(tag=_TAG_ANNOUNCE, node=self.ctx.node_id, value=0)
        _, phase = divmod(round_index - 1, _MIS_PHASES)
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
        iteration, phase = divmod(round_index - 1, _MIS_PHASES)
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
    return algorithms, mis_message_bits(n, ids)


class BFSTreeBC(BroadcastCongestAlgorithm):
    """One node of the layered BFS algorithm.

    Parameters
    ----------
    is_root:
        Whether this node is the BFS root.
    id_bits, depth_bits:
        Field widths for the announcement codec.
    """

    def __init__(self, is_root: bool, id_bits: int, depth_bits: int) -> None:
        self._is_root = is_root
        self._id_bits = id_bits
        self._depth_bits = depth_bits
        self._distance: int | None = 0 if is_root else None
        self._parent: int | None = None
        self._announced = False
        self._ceased = False

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        self._codec = MessageCodec(
            [("node", self._id_bits), ("depth", self._depth_bits)]
        )
        if self._codec.width > ctx.message_bits:
            raise ConfigurationError(
                f"BFS needs {self._codec.width}-bit messages, budget is "
                f"{ctx.message_bits}"
            )

    def broadcast(self, round_index: int) -> int | None:
        """Announce ``⟨ID, distance⟩`` once, in the distance's round."""
        if self._ceased:
            return None
        if (
            self._distance is not None
            and not self._announced
            and round_index >= self._distance
        ):
            self._announced = True
            return self._codec.pack(node=self.ctx.node_id, depth=self._distance)
        return None

    def receive(self, round_index: int, messages: list[int]) -> None:
        """Adopt the smallest announcing neighbour as parent when discovered."""
        if self._ceased:
            return
        if self._announced:
            # One round after announcing, the node's role is complete.
            self._ceased = True
            return
        if self._distance is not None:
            return
        announcers = [
            fields
            for fields in map(self._codec.unpack, messages)
            if fields["depth"] == round_index
        ]
        if announcers:
            self._distance = round_index + 1
            self._parent = min(fields["node"] for fields in announcers)

    @property
    def finished(self) -> bool:
        return self._ceased

    def output(self) -> tuple[int, int | None]:
        """``(distance, parent_id)``; ``(-1, None)`` when unreachable."""
        if self._distance is None:
            return (-1, None)
        return (self._distance, self._parent)


def make_bfs_algorithms(
    topology: Topology, root: int, ids: Sequence[int] | None = None
) -> tuple[list[BFSTreeBC], int]:
    """Build per-node BFS algorithms plus the budget they need."""
    n = topology.num_nodes
    if not 0 <= root < n:
        raise ConfigurationError(f"root {root} out of range for {n} nodes")
    if ids is None:
        ids = list(range(n))
    id_bits, depth_bits = bfs_field_widths(n, ids)
    budget = id_bits + depth_bits
    algorithms = [
        BFSTreeBC(is_root=(v == root), id_bits=id_bits, depth_bits=depth_bits)
        for v in range(n)
    ]
    return algorithms, budget


class LeaderElectionBC(BroadcastCongestAlgorithm):
    """One node of max-ID flooding leader election.

    Parameters
    ----------
    horizon:
        Number of rounds to run; must be at least the network diameter for
        agreement (``n`` always suffices).
    """

    def __init__(self, horizon: int) -> None:
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        self._horizon = horizon
        self._best: int | None = None
        self._changed = True
        self._rounds_seen = 0

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        if required_bits(ctx.node_id + 1) > ctx.message_bits:
            raise ConfigurationError("node ID does not fit the message budget")
        self._best = ctx.node_id

    def broadcast(self, round_index: int) -> int | None:
        """Re-broadcast the best-known ID whenever it improved."""
        if self._changed:
            self._changed = False
            return self._best
        return None

    def receive(self, round_index: int, messages: list[int]) -> None:
        """Fold the neighbours' broadcasts into the best-known ID."""
        assert self._best is not None
        incoming = max(messages, default=self._best)
        if incoming > self._best:
            self._best = incoming
            self._changed = True
        self._rounds_seen += 1

    @property
    def finished(self) -> bool:
        return self._rounds_seen >= self._horizon

    def output(self) -> int | None:
        """The elected leader's ID."""
        return self._best


def make_leader_algorithms(
    topology: Topology, horizon: int | None = None
) -> tuple[list[LeaderElectionBC], int]:
    """Build per-node leader-election algorithms plus the budget needed."""
    n = topology.num_nodes
    if horizon is None:
        horizon = n
    budget = required_bits(max(2, n))
    return [LeaderElectionBC(horizon) for _ in range(n)], budget


def same_run(a, b) -> bool:
    """Whether two runs agree on outputs, rounds, messages and termination."""
    return (
        a.outputs == b.outputs
        and a.rounds_used == b.rounds_used
        and a.messages_sent == b.messages_sent
        and a.finished == b.finished
    )


def _run(topology, built, round_budget, seed, ids):
    algorithms, budget = built
    network = BroadcastCongestNetwork(
        topology, ids=ids, message_bits=budget, seed=seed
    )
    return network.run(algorithms, max_rounds=round_budget(topology.num_nodes))


def matching(topology, seed=0, ids=None, value_exponent=9):
    """The oracle of :func:`~repro.algorithms.run_matching_bc`."""
    built = make_matching_algorithms(topology, ids, value_exponent=value_exponent)
    return _run(topology, built, matching_module._round_budget, seed, ids)


def mis(topology, seed=0, ids=None):
    """The oracle of :func:`~repro.algorithms.run_mis_bc`."""
    built = make_mis_algorithms(topology, ids)
    return _run(topology, built, mis_module._round_budget, seed, ids)


def coloring(topology, seed=0, ids=None):
    """The oracle of :func:`~repro.algorithms.run_coloring_bc`."""
    built = coloring_module.make_coloring_algorithms(topology, ids)
    return _run(topology, built, coloring_module._round_budget, seed, ids)


def bfs(topology, root, seed=0, ids=None):
    """The oracle of :func:`~repro.algorithms.run_bfs_bc`."""
    built = make_bfs_algorithms(topology, root, ids)
    return _run(topology, built, bfs_module._round_budget, seed, ids)


def leader(topology, seed=0, ids=None):
    """The oracle of :func:`~repro.algorithms.run_leader_election_bc`."""
    algorithms, budget = make_leader_algorithms(topology)
    if ids is not None:
        # The entry point widens the budget to carry the largest ID.
        budget = max(budget, required_bits(max(ids) + 1))
    built = algorithms, budget
    return _run(topology, built, leader_module._round_budget, seed, ids)

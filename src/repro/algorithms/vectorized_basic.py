"""Columnar leader election and BFS for the array-native CONGEST engine.

Each class re-implements its per-node counterpart
(:class:`~repro.algorithms.leader_election.LeaderElectionBC`,
:class:`~repro.algorithms.bfs.BFSTreeBC`) with whole-network numpy
state, preserving the reference semantics exactly: which nodes
broadcast each round, what they send, and how state evolves — so a
vectorized run's :class:`~repro.congest.network.RunResult` (outputs,
rounds used, messages sent) is bit-identical to the reference engine's
for every seed and topology.
"""

from __future__ import annotations

import numpy as np

from ..congest.context import NodeContext  # noqa: F401  (docs cross-reference)
from ..congest.model import required_bits
from ..congest.vectorized import (
    VectorContext,
    VectorizedBroadcastAlgorithm,
    WordCodec,
    inbox_receivers,
)
from ..errors import ConfigurationError

__all__ = ["VectorizedLeaderElection", "VectorizedBFSTree"]


class VectorizedLeaderElection(VectorizedBroadcastAlgorithm):
    """Max-ID flooding leader election with columnar state.

    Mirrors :class:`~repro.algorithms.leader_election.LeaderElectionBC`:
    every node re-broadcasts the best ID it knows whenever it improved,
    and terminates after ``horizon`` rounds.
    """

    def __init__(self, horizon: int) -> None:
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        self._horizon = horizon

    def setup(self, net: VectorContext) -> None:
        """Initialise the best-known-ID and changed columns."""
        super().setup(net)
        if required_bits(int(net.ids.max()) + 1) > net.message_bits:
            raise ConfigurationError("node ID does not fit the message budget")
        self._best = net.ids.copy()
        self._changed = np.ones(net.num_nodes, dtype=bool)
        self._rounds_seen = 0

    def broadcast_step(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Broadcast the best-known ID wherever it changed last round."""
        active = self._changed & ~self.finished_mask()
        self._changed = self._changed & ~active
        return self._best, active

    def receive_step(
        self, round_index: int, inbox_indptr: np.ndarray, inbox: np.ndarray
    ) -> None:
        """Fold the neighbour maxima into the best-known-ID column."""
        incoming = np.full(self.net.num_nodes, -1, dtype=np.int64)
        np.maximum.at(
            incoming, inbox_receivers(inbox_indptr), inbox[:, 0].astype(np.int64)
        )
        improved = incoming > self._best
        self._best = np.where(improved, incoming, self._best)
        self._changed |= improved
        self._rounds_seen += 1

    def finished_mask(self) -> np.ndarray:
        """Every node terminates in lock-step after ``horizon`` rounds."""
        return np.full(
            self.net.num_nodes, self._rounds_seen >= self._horizon, dtype=bool
        )

    def outputs(self) -> list[object]:
        """The elected leader's ID per node."""
        return [int(best) for best in self._best]


class VectorizedBFSTree(VectorizedBroadcastAlgorithm):
    """Layer-synchronous BFS flooding with columnar state.

    Mirrors :class:`~repro.algorithms.bfs.BFSTreeBC`: a node discovered
    at distance ``d`` announces ``⟨ID, d⟩`` in round ``d`` and ceases
    the same round; undiscovered nodes hearing a round-``d``
    announcement adopt distance ``d + 1`` and the smallest announcing
    ID as parent.
    """

    def __init__(self, root: int, id_bits: int, depth_bits: int) -> None:
        self._root = root
        self._id_bits = id_bits
        self._depth_bits = depth_bits

    def setup(self, net: VectorContext) -> None:
        """Initialise distance/parent columns and the message codec."""
        super().setup(net)
        self._codec = WordCodec(
            [("node", self._id_bits), ("depth", self._depth_bits)]
        )
        if self._codec.width > net.message_bits:
            raise ConfigurationError(
                f"BFS needs {self._codec.width}-bit messages, budget is "
                f"{net.message_bits}"
            )
        n = net.num_nodes
        self._distance = np.full(n, -1, dtype=np.int64)
        self._distance[self._root] = 0
        self._parent = np.full(n, -1, dtype=np.int64)
        self._announced = np.zeros(n, dtype=bool)
        self._ceased = np.zeros(n, dtype=bool)

    def broadcast_step(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Announce ``⟨ID, distance⟩`` for this round's frontier."""
        active = (
            ~self._ceased
            & ~self._announced
            & (self._distance >= 0)
            & (self._distance <= round_index)
        )
        self._announced |= active
        messages = self._codec.pack(
            self.net.num_nodes,
            node=self.net.ids.astype(np.uint64),
            depth=np.maximum(self._distance, 0).astype(np.uint64),
        )
        return messages, active

    def receive_step(
        self, round_index: int, inbox_indptr: np.ndarray, inbox: np.ndarray
    ) -> None:
        """Retire announced nodes; let undiscovered nodes adopt a layer."""
        cease_now = ~self._ceased & self._announced
        receivers = inbox_receivers(inbox_indptr)
        node = self._codec.unpack(inbox, "node")
        depth = self._codec.unpack(inbox, "depth")
        adopter = (
            (self._distance[receivers] < 0)
            & ~self._ceased[receivers]
            & (depth == np.uint64(round_index))
        )
        best_parent = np.full(self.net.num_nodes, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(
            best_parent, receivers[adopter], node[adopter].astype(np.int64)
        )
        discovered = best_parent < np.iinfo(np.int64).max
        self._distance = np.where(
            discovered, np.int64(round_index + 1), self._distance
        )
        self._parent = np.where(discovered, best_parent, self._parent)
        self._ceased |= cease_now

    def finished_mask(self) -> np.ndarray:
        """Nodes cease one receive after announcing; unreachable never do."""
        return self._ceased

    def outputs(self) -> list[object]:
        """``(distance, parent_id)`` per node; ``(-1, None)`` unreachable."""
        return [
            (
                int(self._distance[v]),
                None if self._parent[v] < 0 else int(self._parent[v]),
            )
            for v in range(self.net.num_nodes)
        ]

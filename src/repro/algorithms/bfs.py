"""BFS tree construction in Broadcast CONGEST.

Layer-synchronous flooding from a root: a node discovered at distance ``d``
broadcasts ``⟨ID, d⟩`` in round ``d``; undiscovered nodes hearing an
announcement adopt distance ``d + 1`` and the smallest announcing ID as
parent.  Terminates in eccentricity(root) + 1 rounds; unreachable nodes
report distance ``-1``.

:class:`VectorizedBFSTree` holds the whole network's distances and
parents in numpy columns; per-seed runs are bit-identical to the
per-node oracle the tests keep in ``tests/algorithms/per_node_oracle.py``.
"""

from __future__ import annotations

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
)
from ..errors import ConfigurationError
from ..graphs import Topology

__all__ = ["VectorizedBFSTree", "bfs_field_widths", "run_bfs_bc"]


def bfs_field_widths(
    num_nodes: int, ids: "Sequence[int] | None" = None
) -> tuple[int, int]:
    """The BFS codec's ``(id_bits, depth_bits)`` — the one budget source.

    Shared by :func:`run_bfs_bc` and the sweep workloads, so every run
    of the BFS sizes its fields the same way for the same network.
    """
    max_id = max(ids) if ids is not None else num_nodes - 1
    return required_bits(max_id + 1), required_bits(max(2, num_nodes))


class VectorizedBFSTree(VectorizedBroadcastAlgorithm):
    """Layer-synchronous BFS flooding with columnar state.

    A node discovered at distance ``d`` announces ``⟨ID, d⟩`` in round
    ``d`` and ceases the same round; undiscovered nodes hearing a
    round-``d`` announcement adopt distance ``d + 1`` and the smallest
    announcing ID as parent.  ``id_bits`` and ``depth_bits`` are the
    announcement codec's field widths (:func:`bfs_field_widths`).
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


def _round_budget(num_nodes: int) -> int:
    """The rounds :func:`run_bfs_bc` allows: one per layer, plus slack."""
    return num_nodes + 2


def run_bfs_bc(
    topology: Topology,
    root: int,
    seed: int = 0,
    ids: Sequence[int] | None = None,
) -> RunResult:
    """Run the BFS construction on a native Broadcast CONGEST network.

    Executes :class:`VectorizedBFSTree` over the perfect channel.
    """
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    if not 0 <= root < n:
        raise ConfigurationError(f"root {root} out of range for {n} nodes")
    id_bits, depth_bits = bfs_field_widths(n, ids)
    network = VectorizedBroadcastNetwork(
        topology, ids=ids, message_bits=id_bits + depth_bits, seed=seed
    )
    return network.run(
        VectorizedBFSTree(root, id_bits, depth_bits),
        max_rounds=_round_budget(n),
    )

"""BFS tree construction in Broadcast CONGEST.

Layer-synchronous flooding from a root: a node discovered at distance ``d``
broadcasts ``⟨ID, d⟩`` in round ``d``; undiscovered nodes hearing an
announcement adopt distance ``d + 1`` and the smallest announcing ID as
parent.  Terminates in eccentricity(root) + 1 rounds; unreachable nodes
report distance ``-1``.
"""

from __future__ import annotations

from typing import Sequence

from ..congest.algorithm import BroadcastCongestAlgorithm
from ..congest.context import NodeContext
from ..congest.model import MessageCodec, required_bits
from ..congest.network import RunResult
from ..congest.vectorized import VectorizedBroadcastNetwork
from ..errors import ConfigurationError
from ..graphs import Topology
from .vectorized_basic import VectorizedBFSTree

__all__ = ["BFSTreeBC", "bfs_field_widths", "make_bfs_algorithms", "run_bfs_bc"]


def bfs_field_widths(
    num_nodes: int, ids: "Sequence[int] | None" = None
) -> tuple[int, int]:
    """The BFS codec's ``(id_bits, depth_bits)`` — the one budget source.

    Shared by :func:`make_bfs_algorithms`, :func:`run_bfs_bc` and the
    sweep workloads, so the columnar run and the per-node engine can
    never disagree on the message budget for the same run.
    """
    max_id = max(ids) if ids is not None else num_nodes - 1
    return required_bits(max_id + 1), required_bits(max(2, num_nodes))


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

    Executes the columnar :class:`~repro.algorithms.vectorized_basic.
    VectorizedBFSTree`, which is bit-identical per seed to
    :func:`make_bfs_algorithms` on the per-node engine.
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

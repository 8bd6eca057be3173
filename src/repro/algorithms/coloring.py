"""Randomised (Δ+1)-colouring in Broadcast CONGEST.

The classical trial-and-fix scheme: each iteration, every uncoloured node
draws a candidate from its remaining palette and broadcasts
``Try⟨ID, colour⟩``; a node whose candidate conflicts with no neighbour's
candidate fixes it and broadcasts ``Fix⟨ID, colour⟩``; neighbours strike
fixed colours from their palettes.  Terminates in ``O(log n)`` iterations
w.h.p., always producing a proper colouring with ``Δ + 1`` colours.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..congest.algorithm import BroadcastCongestAlgorithm
from ..congest.context import NodeContext
from ..congest.model import MessageCodec, required_bits
from ..congest.network import RunResult
from ..congest.vectorized import (
    ObjectAlgorithmsAdapter,
    VectorizedBroadcastNetwork,
)
from ..errors import ConfigurationError
from ..graphs import Topology

__all__ = ["ColoringBC", "make_coloring_algorithms", "run_coloring_bc"]

_TAG_TRY = 0
_TAG_FIX = 1

_PHASES = 2


def _iteration_cap(num_nodes: int) -> int:
    """The ``O(log n)`` iteration bound: ``8 log₂ n`` plus slack."""
    return 8 * max(1, math.ceil(math.log2(max(2, num_nodes)))) + 8


class ColoringBC(BroadcastCongestAlgorithm):
    """One node of the trial-and-fix (Δ+1)-colouring algorithm.

    ``id_bits`` and ``color_bits`` are the ``⟨tag, ID, colour⟩`` codec's
    field widths; the iteration cap is ``8 log₂ n + 8``, derived from
    the context.
    """

    def __init__(self, id_bits: int, color_bits: int) -> None:
        self._id_bits = id_bits
        self._color_bits = color_bits
        self._color: int | None = None
        self._ceased = False
        self._candidate: int | None = None
        self._conflict = False
        self._palette: list[int] = []

    def setup(self, ctx: NodeContext) -> None:
        super().setup(ctx)
        self._codec = MessageCodec(
            [("tag", 1), ("node", self._id_bits), ("color", self._color_bits)]
        )
        if self._codec.width > ctx.message_bits:
            raise ConfigurationError(
                f"colouring needs {self._codec.width}-bit messages, budget is "
                f"{ctx.message_bits}"
            )
        self._palette = list(range(ctx.max_degree + 1))
        self._max_iterations = _iteration_cap(ctx.num_nodes)

    def broadcast(self, round_index: int) -> int | None:
        """Try a palette colour, then fix it if no neighbour conflicted."""
        if self._ceased:
            return None
        _, phase = divmod(round_index, _PHASES)
        if phase == 0:
            self._conflict = False
            self._candidate = self._palette[
                int(self.ctx.rng.integers(0, len(self._palette)))
            ]
            return self._codec.pack(
                tag=_TAG_TRY, node=self.ctx.node_id, color=self._candidate
            )
        if not self._conflict and self._candidate is not None:
            self._color = self._candidate
            return self._codec.pack(
                tag=_TAG_FIX, node=self.ctx.node_id, color=self._color
            )
        return None

    def receive(self, round_index: int, messages: list[int]) -> None:
        """Detect candidate conflicts and strike fixed colours."""
        if self._ceased:
            return
        iteration, phase = divmod(round_index, _PHASES)
        if iteration >= self._max_iterations:
            self._ceased = True
            return
        unpacked = [self._codec.unpack(m) for m in messages]
        if phase == 0:
            for fields in unpacked:
                if (
                    fields["tag"] == _TAG_TRY
                    and fields["color"] == self._candidate
                ):
                    self._conflict = True
        else:
            for fields in unpacked:
                if fields["tag"] == _TAG_FIX and fields["color"] in self._palette:
                    self._palette.remove(fields["color"])
            if self._color is not None:
                self._ceased = True

    @property
    def finished(self) -> bool:
        """Whether this node has fixed a colour (or hit the cap)."""
        return self._ceased

    def output(self) -> object:
        """The node's colour in ``[0, Δ]``, or ``None`` if uncoloured."""
        return self._color


def make_coloring_algorithms(
    topology: Topology, ids: Sequence[int] | None = None
) -> tuple[list[ColoringBC], int]:
    """Build per-node colouring algorithms plus the budget they need."""
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    id_bits = required_bits(max(ids) + 1)
    color_bits = required_bits(topology.max_degree + 1)
    budget = 1 + id_bits + color_bits
    algorithms = [
        ColoringBC(id_bits=id_bits, color_bits=color_bits) for _ in range(n)
    ]
    return algorithms, budget


def _round_budget(num_nodes: int) -> int:
    """The rounds :func:`run_coloring_bc` allows: ``O(log n)`` iterations."""
    return _PHASES * _iteration_cap(num_nodes)


def run_coloring_bc(
    topology: Topology,
    seed: int = 0,
    ids: Sequence[int] | None = None,
) -> RunResult:
    """Run the (Δ+1)-colouring on a native Broadcast CONGEST network.

    Colouring has no columnar implementation yet, so the array-native
    engine executes the per-node objects through the
    :class:`~repro.congest.vectorized.ObjectAlgorithmsAdapter` — results
    are bit-identical to the per-node oracle the tests keep.
    """
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    algorithms, budget = make_coloring_algorithms(topology, ids)
    network = VectorizedBroadcastNetwork(
        topology, ids=ids, message_bits=budget, seed=seed
    )
    return network.run(
        ObjectAlgorithmsAdapter(algorithms), max_rounds=_round_budget(n)
    )

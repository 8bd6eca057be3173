"""The per-node CONGEST engine and the run contract both models share.

:class:`CongestNetwork` runs CONGEST algorithms directly (perfect
channels, one Python object per node, per-neighbour addressing by ID).
Broadcast CONGEST runs on the array-native engine of
:mod:`repro.congest.vectorized`, which shares this module's
:class:`RunResult` and construction-time checks; its ground truth is what
the paper's Theorem 11 promises the beeping simulation reproduces — the
run "runs identically as it does in Broadcast CONGEST".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError, ProtocolViolationError
from ..graphs import Topology
from ..rng import derive_rng
from .algorithm import CongestAlgorithm
from .context import NodeContext
from .model import check_message

__all__ = ["RunResult", "CongestNetwork"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of a message-passing execution.

    Attributes
    ----------
    outputs:
        Per-node outputs, indexed by node position.
    rounds_used:
        Communication rounds executed (excludes rounds after all nodes
        finished).
    messages_sent:
        Total messages placed on channels across the run.
    finished:
        Whether every node terminated within the round budget.
    """

    outputs: list[object]
    rounds_used: int
    messages_sent: int
    finished: bool


def default_message_bits(num_nodes: int, gamma: int = 4) -> int:
    """The model's per-round budget ``γ log n`` (with ``log`` ceil'd, min 1)."""
    if num_nodes < 1:
        raise ConfigurationError("network needs at least one node")
    return gamma * max(1, math.ceil(math.log2(max(2, num_nodes))))


class _EngineBase:
    """Construction-time checks and node contexts shared by the engines."""

    def __init__(
        self,
        topology: Topology,
        ids: Sequence[int] | None = None,
        message_bits: int | None = None,
        seed: int = 0,
    ) -> None:
        n = topology.num_nodes
        if n < 1:
            raise ConfigurationError("network needs at least one node")
        if ids is None:
            ids = list(range(n))
        if len(ids) != n or len(set(ids)) != n:
            raise ConfigurationError("ids must be unique and one per node")
        if any(node_id < 0 for node_id in ids):
            raise ConfigurationError("ids must be non-negative")
        if message_bits is None:
            message_bits = default_message_bits(n)
        if message_bits < 1:
            raise ConfigurationError("message_bits must be >= 1")
        self._topology = topology
        self._ids = list(ids)
        self._message_bits = message_bits
        self._seed = seed
        self._index_of_id = {node_id: index for index, node_id in enumerate(ids)}

    @property
    def topology(self) -> Topology:
        """The network topology."""
        return self._topology

    @property
    def ids(self) -> list[int]:
        """Node IDs by position."""
        return list(self._ids)

    @property
    def message_bits(self) -> int:
        """Per-round message bit budget."""
        return self._message_bits

    def _context(self, index: int, with_neighbor_ids: bool) -> NodeContext:
        neighbor_ids = None
        if with_neighbor_ids:
            neighbor_ids = sorted(
                self._ids[int(u)] for u in self._topology.neighbors[index]
            )
        return NodeContext(
            index=index,
            node_id=self._ids[index],
            num_nodes=self._topology.num_nodes,
            max_degree=self._topology.max_degree,
            degree=int(self._topology.degrees[index]),
            message_bits=self._message_bits,
            rng=derive_rng(self._seed, "node-local", index),
            neighbor_ids=neighbor_ids,
        )


class CongestNetwork(_EngineBase):
    """Synchronous CONGEST engine with per-neighbour addressing by ID."""

    def run(
        self,
        algorithms: Sequence[CongestAlgorithm],
        max_rounds: int,
    ) -> RunResult:
        """Drive the per-node algorithms for up to ``max_rounds`` rounds."""
        n = self._topology.num_nodes
        if len(algorithms) != n:
            raise ConfigurationError(f"got {len(algorithms)} algorithms for {n} nodes")
        for index, algorithm in enumerate(algorithms):
            algorithm.setup(self._context(index, with_neighbor_ids=True))
        neighbor_id_sets = [
            {self._ids[int(u)] for u in self._topology.neighbors[index]}
            for index in range(n)
        ]
        # Live-node accounting: ``done`` caches each node's last observed
        # ``finished`` state and ``live`` counts the rest, updated on
        # observed finish transitions instead of a per-round rescan.
        done = [algorithm.finished for algorithm in algorithms]
        live = done.count(False)
        rounds_used = 0
        messages_sent = 0
        for round_index in range(max_rounds):
            if live == 0:
                break
            inboxes: list[dict[int, int]] = [dict() for _ in range(n)]
            for index, algorithm in enumerate(algorithms):
                if done[index]:
                    continue
                if algorithm.finished:
                    done[index] = True
                    live -= 1
                    continue
                outgoing = algorithm.send(round_index)
                for destination_id, message in outgoing.items():
                    if destination_id not in neighbor_id_sets[index]:
                        raise ProtocolViolationError(
                            f"node {self._ids[index]} sent to non-neighbour "
                            f"{destination_id}"
                        )
                    check_message(message, self._message_bits)
                    destination = self._index_of_id[destination_id]
                    inboxes[destination][self._ids[index]] = message
                    messages_sent += 1
            for index, algorithm in enumerate(algorithms):
                if done[index]:
                    continue
                if algorithm.finished:
                    done[index] = True
                    live -= 1
                    continue
                algorithm.receive(round_index, inboxes[index])
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

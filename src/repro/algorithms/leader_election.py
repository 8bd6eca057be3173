"""Leader election in Broadcast CONGEST by max-ID flooding.

Every node maintains the largest ID it has heard and re-broadcasts on
change.  After ``max_rounds ≥ diameter`` rounds the network agrees on the
maximum ID (Section 1.2 surveys far more efficient native-beeping leader
election; this is the simple message-passing counterpart used to exercise
the simulation).

:class:`VectorizedLeaderElection` holds every node's best-known ID in one
numpy column; per-seed runs are bit-identical to the per-node oracle the
tests keep in ``tests/algorithms/per_node_oracle.py``.
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
    inbox_receivers,
)
from ..errors import ConfigurationError
from ..graphs import Topology

__all__ = ["VectorizedLeaderElection", "run_leader_election_bc"]


class VectorizedLeaderElection(VectorizedBroadcastAlgorithm):
    """Max-ID flooding leader election with columnar state.

    Every node re-broadcasts the best ID it knows whenever it improved,
    and terminates after ``horizon`` rounds.

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


def _round_budget(num_nodes: int) -> int:
    """The rounds :func:`run_leader_election_bc` allows: more than any diameter."""
    return num_nodes + 1


def run_leader_election_bc(
    topology: Topology,
    seed: int = 0,
    ids: Sequence[int] | None = None,
) -> RunResult:
    """Run leader election on a native Broadcast CONGEST network.

    Executes :class:`VectorizedLeaderElection` over the perfect channel.
    """
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    budget = max(required_bits(max(2, n)), required_bits(max(ids) + 1))
    network = VectorizedBroadcastNetwork(
        topology, ids=ids, message_bits=budget, seed=seed
    )
    return network.run(VectorizedLeaderElection(n), max_rounds=_round_budget(n))

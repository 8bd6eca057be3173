"""Leader election in Broadcast CONGEST by max-ID flooding.

Every node maintains the largest ID it has heard and re-broadcasts on
change.  After ``max_rounds ≥ diameter`` rounds the network agrees on the
maximum ID (Section 1.2 surveys far more efficient native-beeping leader
election; this is the simple message-passing counterpart used to exercise
the simulation).
"""

from __future__ import annotations

from typing import Sequence

from ..congest.algorithm import BroadcastCongestAlgorithm
from ..congest.context import NodeContext
from ..congest.model import required_bits
from ..congest.network import RunResult
from ..congest.vectorized import VectorizedBroadcastNetwork
from ..errors import ConfigurationError
from ..graphs import Topology
from .vectorized_basic import VectorizedLeaderElection

__all__ = ["LeaderElectionBC", "make_leader_algorithms", "run_leader_election_bc"]


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


def _round_budget(num_nodes: int) -> int:
    """The rounds :func:`run_leader_election_bc` allows: more than any diameter."""
    return num_nodes + 1


def run_leader_election_bc(
    topology: Topology,
    seed: int = 0,
    ids: Sequence[int] | None = None,
) -> RunResult:
    """Run leader election on a native Broadcast CONGEST network.

    Executes the columnar :class:`~repro.algorithms.vectorized_basic.
    VectorizedLeaderElection`, which is bit-identical per seed to
    :func:`make_leader_algorithms` on the per-node engine.
    """
    n = topology.num_nodes
    if ids is None:
        ids = list(range(n))
    budget = max(required_bits(max(2, n)), required_bits(max(ids) + 1))
    network = VectorizedBroadcastNetwork(
        topology, ids=ids, message_bits=budget, seed=seed
    )
    return network.run(VectorizedLeaderElection(n), max_rounds=_round_budget(n))

"""Round-by-round execution engine for the beeping model.

Each round: every device picks BEEP or LISTEN; the engine computes the true
received bit for every device (own beep, else OR of beeping neighbours,
from :meth:`repro.graphs.Topology.neighbor_or` — the function
:class:`~repro.engine.dense.DenseBackend` runs on whole schedules), passes it
through the noise model, and delivers the heard bit back to the device.
This is an exact discrete-time implementation of the model in Section 1.1
of the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, ProtocolViolationError
from ..graphs import Topology
from .model import Action
from .node import BeepingProtocol
from .noise import NoiseModel, NoiselessChannel

__all__ = ["BeepingNetwork"]


class BeepingNetwork:
    """A beeping network over a fixed topology and noise model."""

    def __init__(
        self, topology: Topology, channel: NoiseModel | None = None
    ) -> None:
        self._topology = topology
        self._channel = channel if channel is not None else NoiselessChannel()

    @property
    def topology(self) -> Topology:
        """The network topology."""
        return self._topology

    @property
    def channel(self) -> NoiseModel:
        """The noise model applied to heard bits."""
        return self._channel

    def run(
        self,
        protocols: Sequence[BeepingProtocol],
        max_rounds: int,
        start_round: int = 0,
        stop_when_finished: bool = True,
    ) -> int:
        """Execute the protocols for up to ``max_rounds`` rounds.

        Returns the number of rounds executed.

        Parameters
        ----------
        protocols:
            One protocol per node, indexed by node id.
        max_rounds:
            Hard round budget.
        start_round:
            Global round number of the first executed round (keys the noise
            stream, so phases can be chained reproducibly).
        stop_when_finished:
            Stop early once every protocol reports ``finished``.
        """
        n = self._topology.num_nodes
        if len(protocols) != n:
            raise ConfigurationError(
                f"got {len(protocols)} protocols for {n} nodes"
            )
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0, got {max_rounds}")
        if start_round < 0:
            raise ConfigurationError(f"start_round must be >= 0, got {start_round}")
        beeps = np.zeros(n, dtype=bool)
        rounds_used = 0
        for local_round in range(max_rounds):
            round_index = start_round + local_round
            if stop_when_finished and all(p.finished for p in protocols):
                break
            beeps[:] = False
            for node, protocol in enumerate(protocols):
                action = protocol.act(round_index)
                if not isinstance(action, Action):
                    raise ProtocolViolationError(
                        f"node {node} returned {action!r}; protocols must "
                        "return Action.BEEP or Action.LISTEN"
                    )
                beeps[node] = action is Action.BEEP
            received = self._topology.neighbor_or(beeps) | beeps
            heard = self._channel.apply(received, round_index)
            for node, protocol in enumerate(protocols):
                protocol.observe(round_index, bool(heard[node]))
            rounds_used += 1
        return rounds_used

"""Round-by-round execution engine for the beeping model.

Each round: every device picks BEEP or LISTEN; the engine computes the true
received bit for every device (own beep, else OR of beeping neighbours,
from :meth:`repro.graphs.Topology.neighbor_or` — the function
:class:`~repro.engine.DenseBackend` runs on whole schedules), passes it
through the noise model, and delivers the heard bit back to the device.
This is an exact discrete-time implementation of the model in Section 1.1
of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, ProtocolViolationError
from ..graphs import Topology
from .model import Action
from .node import BeepingProtocol
from .noise import NoiseModel, NoiselessChannel

__all__ = ["BeepingNetwork", "ExecutionTrace"]


@dataclass
class ExecutionTrace:
    """Record of a beeping execution, for tests and experiments.

    Attributes
    ----------
    rounds_used:
        Number of rounds executed.
    beeps:
        Boolean ``(n, rounds_used)`` matrix of who beeped when (only kept
        when tracing is enabled).
    heard:
        Boolean ``(n, rounds_used)`` matrix of what each device heard.
    """

    rounds_used: int = 0
    beeps: np.ndarray | None = None
    heard: np.ndarray | None = None
    _capacity: int = field(default=0, repr=False)
    _budget: int = field(default=0, repr=False)

    #: First allocation covers min(budget, this many) rounds; capacity
    #: then doubles on demand, so early-stopped runs with huge budgets
    #: never pay budget-sized peak memory.
    _INITIAL_CAPACITY = 4096

    def _prepare(self, num_nodes: int, max_rounds: int) -> None:
        """Preallocate round-budget matrices, written in place per round.

        One up-front allocation (geometrically grown toward the budget
        when a run actually gets that far) replaces the historical
        per-round column ``.copy()`` accumulation plus the final
        ``np.stack`` (which briefly held the trace twice).
        """
        self._budget = max_rounds
        self._capacity = min(max_rounds, self._INITIAL_CAPACITY)
        self.beeps = np.zeros((num_nodes, self._capacity), dtype=bool)
        self.heard = np.zeros((num_nodes, self._capacity), dtype=bool)

    def _record(self, column: int, beeps: np.ndarray, heard: np.ndarray) -> None:
        assert self.beeps is not None and self.heard is not None
        if column >= self._capacity:
            self._capacity = min(self._budget, 2 * self._capacity)
            grown_beeps = np.zeros((beeps.size, self._capacity), dtype=bool)
            grown_heard = np.zeros((heard.size, self._capacity), dtype=bool)
            grown_beeps[:, :column] = self.beeps[:, :column]
            grown_heard[:, :column] = self.heard[:, :column]
            self.beeps, self.heard = grown_beeps, grown_heard
        self.beeps[:, column] = beeps
        self.heard[:, column] = heard

    def _finalize(self) -> None:
        if self._capacity == 0:
            return
        if self.rounds_used == 0:
            # Tracing was on but no round executed: match the historical
            # "no columns collected" shape.
            self.beeps = None
            self.heard = None
        elif self.rounds_used < self._capacity:
            assert self.beeps is not None and self.heard is not None
            self.beeps = self.beeps[:, : self.rounds_used].copy()
            self.heard = self.heard[:, : self.rounds_used].copy()
        self._capacity = 0
        self._budget = 0


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
        trace: bool = False,
        stop_when_finished: bool = True,
    ) -> ExecutionTrace:
        """Execute the protocols for up to ``max_rounds`` rounds.

        Parameters
        ----------
        protocols:
            One protocol per node, indexed by node id.
        max_rounds:
            Hard round budget.
        start_round:
            Global round number of the first executed round (keys the noise
            stream, so phases can be chained reproducibly).
        trace:
            Keep full beep/heard matrices in the returned trace.
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
        trace_record = ExecutionTrace()
        if trace and max_rounds > 0:
            trace_record._prepare(n, max_rounds)
        beeps = np.zeros(n, dtype=bool)
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
            if trace:
                trace_record._record(trace_record.rounds_used, beeps, heard)
            trace_record.rounds_used += 1
        trace_record._finalize()
        return trace_record

"""Beep waves: single-source broadcast in the beeping model.

The classical primitive of Ghaffari–Haeupler [19], formalised by
Czumaj–Davies [9], cited in Section 1.2 of the paper: a ``b``-bit message is
broadcast from one source in ``O(D + b)`` rounds.  The source launches one
"wave" per message bit, waves spaced three rounds apart; every other device
relays a wave one round after hearing it, with a two-round refractory period
that stops waves reflecting backwards.

A device at distance ``d`` from the source hears wave ``j`` at round
``3j + d``; the initial always-on synchronisation wave (``j = 0``) lets each
device measure ``d`` itself.  Under noise the broadcast is repeated and
devices take per-bit majorities (distance is re-estimated per repetition and
combined by median).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import bitstrings
from ..bitstrings import BitString
from ..errors import ConfigurationError
from ..graphs import Topology
from .model import Action
from .network import BeepingNetwork
from .node import BeepingProtocol
from .noise import NoiseModel

__all__ = ["BeepWaveResult", "beep_wave_broadcast"]

#: Rounds between consecutive wave launches; 3 is the minimum spacing at
#: which the refractory relay rule keeps waves from merging or reflecting.
_WAVE_SPACING = 3


@dataclass(frozen=True)
class BeepWaveResult:
    """Outcome of a beep-wave broadcast.

    Attributes
    ----------
    decoded:
        Per-node decoded message (``None`` for nodes that never heard the
        synchronisation wave, i.e. nodes disconnected from the source).
    distances:
        Per-node estimated distance to the source (``-1`` if unreached).
    rounds_used:
        Total beeping rounds consumed.
    """

    decoded: list[BitString | None]
    distances: list[int]
    rounds_used: int

    def all_correct(self, message: BitString, reachable: set[int]) -> bool:
        """Whether every reachable node decoded the message exactly."""
        for node in reachable:
            got = self.decoded[node]
            if got is None or len(got) != len(message) or bitstrings.hamming(got, message):
                return False
        return True


class _SourceProtocol(BeepingProtocol):
    """The source: beeps the sync wave, then one wave per 1-bit."""

    def __init__(self, message: BitString, run_length: int, repetitions: int) -> None:
        self._beep_rounds: set[int] = set()
        for repetition in range(repetitions):
            offset = repetition * run_length
            self._beep_rounds.add(offset)  # synchronisation wave
            for j, bit in enumerate(message, start=1):
                if bit:
                    self._beep_rounds.add(offset + _WAVE_SPACING * j)

    def act(self, round_index: int) -> Action:
        return Action.BEEP if round_index in self._beep_rounds else Action.LISTEN

    def observe(self, round_index: int, heard: bool) -> None:
        pass


class _RelayProtocol(BeepingProtocol):
    """A relay: forwards heard waves with a one-round refractory period."""

    def __init__(self) -> None:
        self._pending_beep: set[int] = set()
        self._recent_beeps: list[int] = []
        self.heard_rounds: set[int] = set()

    def act(self, round_index: int) -> Action:
        if round_index in self._pending_beep:
            self._pending_beep.discard(round_index)
            self._recent_beeps.append(round_index)
            if len(self._recent_beeps) > 4:
                del self._recent_beeps[0]
            return Action.BEEP
        return Action.LISTEN

    def observe(self, round_index: int, heard: bool) -> None:
        if not heard:
            return
        if round_index in self._recent_beeps:
            return  # own beep echoed back by the engine's convention
        self.heard_rounds.add(round_index)
        # Refractory rule: a device that beeped in the previous round is
        # hearing its own wave's downstream relay and must not reflect it.
        # With waves spaced 3 rounds apart, a one-round refractory period is
        # exactly enough: the next wave reaches the device 2 rounds after
        # its own last beep.
        if round_index - 1 not in self._recent_beeps:
            self._pending_beep.add(round_index + 1)


def beep_wave_broadcast(
    topology: Topology,
    source: int,
    message: BitString,
    channel: NoiseModel | None = None,
    repetitions: int = 1,
) -> BeepWaveResult:
    """Broadcast ``message`` from ``source`` to the whole network.

    Uses ``repetitions * (3(b + 1) + ecc + 2)`` rounds, where ``ecc`` is the
    source's eccentricity — the ``O(D + b)`` of the literature.  With a
    noisy channel choose ``repetitions = Θ(log n)`` for per-bit majorities.
    """
    n = topology.num_nodes
    if not 0 <= source < n:
        raise ConfigurationError(f"source {source} out of range for {n} nodes")
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    num_bits = len(message)
    eccentricity = int(topology.distances_from(source).max())
    run_length = _WAVE_SPACING * (num_bits + 1) + eccentricity + 2
    protocols: list[BeepingProtocol] = [_RelayProtocol() for _ in range(n)]
    protocols[source] = _SourceProtocol(message, run_length, repetitions)
    network = BeepingNetwork(topology, channel)
    total_rounds = run_length * repetitions
    network.run(protocols, total_rounds, stop_when_finished=False)

    decoded: list[BitString | None] = []
    distances: list[int] = []
    for node in range(n):
        if node == source:
            decoded.append(message.copy())
            distances.append(0)
            continue
        relay = protocols[node]
        assert isinstance(relay, _RelayProtocol)
        message_votes = np.zeros(num_bits, dtype=np.int64)
        distance_estimates: list[int] = []
        runs_heard = 0
        for repetition in range(repetitions):
            offset = repetition * run_length
            in_run = sorted(
                r - offset
                for r in relay.heard_rounds
                if offset <= r < offset + run_length
            )
            if not in_run:
                continue
            runs_heard += 1
            # A device at distance d first hears the sync wave at round
            # d - 1 (listeners hear neighbours' beeps in the same round).
            first_heard = in_run[0]
            distance_estimates.append(first_heard + 1)
            heard_set = set(in_run)
            for j in range(1, num_bits + 1):
                if _WAVE_SPACING * j + first_heard in heard_set:
                    message_votes[j - 1] += 1
        if runs_heard == 0:
            decoded.append(None)
            distances.append(-1)
        else:
            decoded.append(message_votes * 2 > runs_heard)
            distances.append(int(np.median(distance_estimates)))
    return BeepWaveResult(
        decoded=decoded, distances=distances, rounds_used=total_rounds
    )


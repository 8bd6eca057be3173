"""Colour-class TDMA simulation of a Broadcast CONGEST round.

The prior-work approach (Section 1.4): iterate through the colour classes
of a ``G²`` colouring; nodes in the active class transmit their message
bitwise (beep = 1, silence = 0) while everyone else listens.  Because no
listener has two neighbours in one class, each slot delivers one message
undisturbed.

Slot layout per colour class: one *presence* bit (so listeners distinguish
"no neighbour in this class / silent neighbour" from an all-zeros message)
followed by the ``B`` message bits; with ``repetitions = ρ > 1`` every bit
is sent ρ times and decoded by majority — the Ashkenazi–Gelles–Leshem [4]
noise defence.  Round count: ``num_colors · (B + 1) · ρ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..beeping.noise import NoiseModel
from ..engine import run_schedule
from ..errors import ConfigurationError
from ..graphs import Topology

__all__ = ["TDMAOutcome", "tdma_round_length", "simulate_round_tdma"]


@dataclass(frozen=True)
class TDMAOutcome:
    """Result of one TDMA-simulated Broadcast CONGEST round.

    Mirrors :class:`repro.core.RoundOutcome` where it overlaps, so the E8
    comparison can treat the two simulators uniformly.
    """

    decoded: list[list[int]]
    per_node_success: np.ndarray
    success: bool
    beep_rounds_used: int


def tdma_round_length(
    num_colors: int, message_bits: int, repetitions: int
) -> int:
    """Beeping rounds one TDMA-simulated round takes."""
    return num_colors * (message_bits + 1) * repetitions


def simulate_round_tdma(
    topology: Topology,
    messages: Sequence[int | None],
    coloring: Sequence[int],
    message_bits: int,
    channel: NoiseModel | None = None,
    repetitions: int = 1,
    start_round: int = 0,
) -> TDMAOutcome:
    """Simulate one Broadcast CONGEST round by colour-class TDMA.

    Parameters
    ----------
    topology:
        The network.
    messages:
        Per node, the message to broadcast (``None`` = silent).
    coloring:
        A distance-2 colouring (from
        :func:`~repro.baselines.coloring.greedy_distance2_coloring`);
        ``range(n)`` gives every node its own slot, the naive sequential
        simulation.
    message_bits:
        Message width ``B``.
    channel:
        Noise model (noiseless by default — the [7] regime; under noise
        use ``repetitions > 1`` for the [4] regime).
    repetitions:
        Per-bit repetition factor ρ (majority decoding).
    start_round:
        Global round offset keying the noise stream.
    """
    n = topology.num_nodes
    if len(messages) != n or len(coloring) != n:
        raise ConfigurationError("messages and coloring must have one entry per node")
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    _check_distance2(topology, coloring)
    num_colors = max(coloring) + 1 if n else 0
    slot_bits = message_bits + 1
    total_rounds = tdma_round_length(num_colors, message_bits, repetitions)

    schedule = np.zeros((n, total_rounds), dtype=bool)
    for v in range(n):
        message = messages[v]
        if message is None:
            continue
        slot_start = coloring[v] * slot_bits * repetitions
        pattern = np.zeros(slot_bits, dtype=bool)
        pattern[0] = True  # presence bit
        for bit in range(message_bits):
            pattern[1 + bit] = bool((message >> bit) & 1)
        schedule[v, slot_start : slot_start + slot_bits * repetitions] = np.repeat(
            pattern, repetitions
        )

    heard = run_schedule(topology, schedule, channel, start_round=start_round)

    decoded: list[list[int]] = []
    own_color = list(coloring)
    for v in range(n):
        found: list[int] = []
        for color in range(num_colors):
            if color == own_color[v]:
                # The node transmits (or at least owns) this slot; it has no
                # neighbour of its own colour, so nothing to decode here.
                continue
            slot_start = color * slot_bits * repetitions
            slot = heard[v, slot_start : slot_start + slot_bits * repetitions]
            votes = slot.reshape(slot_bits, repetitions).sum(axis=1)
            bits = votes * 2 > repetitions
            if not bits[0]:
                continue  # no (participating) neighbour in this class
            value = 0
            for bit in range(message_bits):
                if bits[1 + bit]:
                    value |= 1 << bit
            found.append(value)
        decoded.append(sorted(found))

    truth = [
        sorted(
            messages[int(u)]  # type: ignore[arg-type]
            for u in topology.neighbors[v]
            if messages[int(u)] is not None
        )
        for v in range(n)
    ]
    per_node_success = np.asarray(
        [decoded[v] == truth[v] for v in range(n)], dtype=bool
    )
    return TDMAOutcome(
        decoded=decoded,
        per_node_success=per_node_success,
        success=bool(per_node_success.all()),
        beep_rounds_used=total_rounds,
    )


def _check_distance2(topology: Topology, coloring: Sequence[int]) -> None:
    for v in range(topology.num_nodes):
        seen: dict[int, int] = {}
        for u in topology.neighbors[v]:
            u = int(u)
            color = coloring[u]
            if color in seen:
                raise ConfigurationError(
                    f"colouring is not distance-2: neighbours {seen[color]} and "
                    f"{u} of node {v} share colour {color}"
                )
            seen[color] = u
        if coloring[v] in seen:
            raise ConfigurationError(
                f"colouring is not proper: node {v} shares colour with a neighbour"
            )

"""Empirical demonstration of the Lemma 14 counting argument.

On the hard instance (``K_{Δ,Δ}``, random left-to-right ``B``-bit
messages), every right-part node hears the same signal each round: the OR
of the left part's beeps.  Any *correct* algorithm therefore realises an
injection from left-message profiles into beep/silence transcripts — so it
needs at least ``Δ²B`` transcript bits, i.e. ``Ω(Δ²B)`` rounds.

:func:`transcript_census` runs a concrete correct beeping algorithm
(sequential bitwise transmission of each left node's message block) over
many random instances and tabulates: rounds used (≥ the bound), distinct
inputs, distinct transcripts, and whether transcript → output is
single-valued — the empirical face of the proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import run_schedule
from ..errors import ConfigurationError
from ..graphs import Topology
from ..graphs.hard_instances import local_broadcast_hard_instance
from .counting import local_broadcast_round_bound

__all__ = ["TranscriptCensus", "transcript_census"]


@dataclass(frozen=True)
class TranscriptCensus:
    """Tabulated counting-argument quantities over random hard instances.

    Attributes
    ----------
    trials:
        Number of random instances run.
    rounds_used:
        Beeping rounds the concrete algorithm used (same for all trials).
    lower_bound_rounds:
        The Lemma 14 bound ``Δ²B/2``.
    distinct_inputs:
        Distinct left-message profiles drawn.
    distinct_transcripts:
        Distinct right-part transcripts observed.
    all_correct:
        Whether every right node decoded all messages in every trial.
    injective:
        Whether distinct inputs always produced distinct transcripts (the
        property correctness forces).
    """

    trials: int
    rounds_used: int
    lower_bound_rounds: int
    distinct_inputs: int
    distinct_transcripts: int
    all_correct: bool
    injective: bool


def transcript_census(
    delta: int, message_bits: int, trials: int, seed: int = 0
) -> TranscriptCensus:
    """Run the census; see the module docstring.

    The concrete algorithm: left node ``i`` transmits its ``Δ`` messages
    (``B`` bits each, ordered by recipient) bitwise during rounds
    ``[iΔB, (i+1)ΔB)``; right nodes read their ``B``-bit block from each
    slot.  Rounds used: ``Δ²B`` — within a factor 2 of the bound, i.e.
    the bound is nearly tight for this instance.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    n = 2 * delta
    block = delta * message_bits  # one left node's transmission block
    total_rounds = delta * block
    bound = local_broadcast_round_bound(delta, message_bits)

    inputs_seen: set[tuple] = set()
    transcripts_seen: set[bytes] = set()
    transcript_to_output: dict[bytes, tuple] = {}
    all_correct = True
    injective = True

    for trial in range(trials):
        instance = local_broadcast_hard_instance(
            delta, n, message_bits, seed=seed + trial
        )
        topology = Topology(instance.graph)
        schedule = np.zeros((n, total_rounds), dtype=bool)
        for left in range(delta):
            offset = left * block
            for right_slot, right in enumerate(range(delta, n)):
                message = instance.messages[(left, right)]
                for bit in range(message_bits):
                    if (message >> bit) & 1:
                        schedule[
                            left, offset + right_slot * message_bits + bit
                        ] = True
        heard = run_schedule(topology, schedule)

        # Decode at each right node and compare with the instance.
        correct = True
        for right in range(delta, n):
            for left in range(delta):
                offset = left * block + (right - delta) * message_bits
                value = 0
                for bit in range(message_bits):
                    if heard[right, offset + bit]:
                        value |= 1 << bit
                if value != instance.messages[(left, right)]:
                    correct = False
        all_correct = all_correct and correct

        profile = tuple(
            instance.messages[(left, right)]
            for left in range(delta)
            for right in range(delta, n)
        )
        # All right nodes hear the OR of left beeps; node `delta` stands in
        # for the common transcript.
        transcript = np.packbits(heard[delta]).tobytes()
        inputs_seen.add(profile)
        transcripts_seen.add(transcript)
        previous = transcript_to_output.get(transcript)
        if previous is not None and previous != profile:
            injective = False
        transcript_to_output[transcript] = profile

    return TranscriptCensus(
        trials=trials,
        rounds_used=total_rounds,
        lower_bound_rounds=bound,
        distinct_inputs=len(inputs_seen),
        distinct_transcripts=len(transcripts_seen),
        all_correct=all_correct,
        injective=injective,
    )

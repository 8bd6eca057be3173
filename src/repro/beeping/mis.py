"""Native beeping-model maximal independent set.

The paper's concluding discussion (Section 7) contrasts problems solvable
in ``polylog(n)`` beeping rounds — MIS, via Afek et al. [1] — with problems
like maximal matching that require ``poly(Δ)`` factors (Theorem 22).  This
module provides that contrast concretely: an MIS algorithm that runs
*directly* on beeps, no message-passing simulation involved, in
``O(log² n)`` rounds.

The algorithm is a rank-knockout scheme in the spirit of [1]:

Each **phase** uses ``L = rank_bits`` contention rounds plus two
bookkeeping rounds:

1. every undecided node draws a random ``L``-bit rank;
2. for bit ``j = L-1 .. 0``: nodes whose rank has bit ``j`` set (and who
   are still in contention) beep; a silent, in-contention node that hears
   a beep drops out of contention for this phase (a neighbour's rank
   dominates its own);
3. **join round**: nodes still in contention join the MIS and beep;
   undecided listeners that hear the join beep become *covered*;
4. **spacer round**: silence, keeping phases aligned.

Survivors of the knockout are pairwise non-adjacent unless two adjacent
nodes drew identical ranks, which ``L = 4 ceil(log₂ n) + 8`` makes a
``O(n⁻⁶)``-probability event per phase; in the noiseless model the output
is then a valid MIS w.h.p., and each phase decides the local rank maxima,
emptying the graph in ``O(log n)`` phases w.h.p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..graphs import Topology
from ..rng import derive_rng, random_bits
from .model import Action
from .network import BeepingNetwork
from .node import BeepingProtocol
from .noise import NoiseModel

__all__ = ["BeepingMISProtocol", "BeepingMISResult", "beeping_mis"]


@dataclass(frozen=True)
class BeepingMISResult:
    """Outcome of a native beeping MIS execution.

    Attributes
    ----------
    in_mis:
        Per-node membership (``None`` if the node never decided within the
        round budget — does not happen w.h.p. at the default budget).
    rounds_used:
        Beeping rounds consumed.
    phases_used:
        Knockout phases executed (``O(log n)`` w.h.p.).
    """

    in_mis: list[bool | None]
    rounds_used: int
    phases_used: int


class BeepingMISProtocol(BeepingProtocol):
    """One device of the rank-knockout MIS (see module docstring)."""

    def __init__(self, rank_bits: int, rng) -> None:
        if rank_bits < 1:
            raise ConfigurationError("rank_bits must be >= 1")
        self._rank_bits = rank_bits
        self._rng = rng
        self._phase_length = rank_bits + 2
        self._decided: bool | None = None
        self._rank = 0
        self._in_contention = False

    @property
    def decided(self) -> bool | None:
        """MIS membership once decided, else ``None``."""
        return self._decided

    def act(self, round_index: int) -> Action:
        if self._decided is not None:
            return Action.LISTEN
        position = round_index % self._phase_length
        if position == 0:
            self._rank = random_bits(self._rng, self._rank_bits)
            self._in_contention = True
        if position < self._rank_bits:
            bit = self._rank_bits - 1 - position
            if self._in_contention and (self._rank >> bit) & 1:
                return Action.BEEP
            return Action.LISTEN
        if position == self._rank_bits:  # join round
            if self._in_contention:
                self._decided = True
                return Action.BEEP
            return Action.LISTEN
        return Action.LISTEN  # spacer

    def observe(self, round_index: int, heard: bool) -> None:
        if self._decided is not None:
            return
        position = round_index % self._phase_length
        if position < self._rank_bits:
            bit = self._rank_bits - 1 - position
            own_bit = (self._rank >> bit) & 1
            if self._in_contention and not own_bit and heard:
                self._in_contention = False
        elif position == self._rank_bits:
            if heard:
                # a neighbour joined the MIS this phase
                self._decided = False

    @property
    def finished(self) -> bool:
        return self._decided is not None

    def output(self) -> bool | None:
        return self._decided


def beeping_mis(
    topology: Topology,
    seed: int = 0,
    channel: NoiseModel | None = None,
    rank_bits: int | None = None,
    max_phases: int | None = None,
) -> BeepingMISResult:
    """Compute an MIS directly in the beeping model.

    Parameters
    ----------
    topology:
        The network.
    seed:
        Keys every node's rank draws.
    channel:
        Noise model.  The knockout is a *noiseless-model* algorithm (like
        [1]); pass a channel only to study its degradation.
    rank_bits:
        Rank width ``L`` (default ``4 ceil(log₂ n) + 8``).
    max_phases:
        Phase budget (default ``8 ceil(log₂ n) + 8``).
    """
    n = topology.num_nodes
    if n == 0:
        return BeepingMISResult(in_mis=[], rounds_used=0, phases_used=0)
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    if rank_bits is None:
        rank_bits = 4 * log_n + 8
    if max_phases is None:
        max_phases = 8 * log_n + 8
    protocols = [
        BeepingMISProtocol(rank_bits, derive_rng(seed, "beeping-mis", v))
        for v in range(n)
    ]
    network = BeepingNetwork(topology, channel)
    phase_length = rank_bits + 2
    rounds_used = network.run(
        protocols, max_rounds=max_phases * phase_length, stop_when_finished=True
    )
    return BeepingMISResult(
        in_mis=[p.output() for p in protocols],
        rounds_used=rounds_used,
        phases_used=math.ceil(rounds_used / phase_length),
    )

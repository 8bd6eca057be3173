"""Ashkenazi–Gelles–Leshem-style noisy TDMA simulator (the [4] baseline).

Runs whole Broadcast CONGEST algorithms over colour-class TDMA with
per-bit repetition, mirroring :class:`repro.core.BeepSimulator`'s interface
so the two simulators can race on identical workloads.  Both run the one
round loop, :func:`~repro.congest.vectorized.drive`; here each round's
delivery is one :func:`~repro.baselines.tdma.simulate_round_tdma` call.

The per-round overhead is ``num_colors · (B+1) · ρ`` with
``num_colors ≤ min{n, Δ²+1}`` and ``ρ = Θ(log n)`` under noise — the
``O(Δ log n · min{n, Δ²})`` of [4], versus this paper's ``O(Δ log n)``.
The prior works' distributed setup phases (``Δ⁶`` rounds in [7],
``Δ⁴ log n`` in [4]) are accounted analytically in
:mod:`~repro.baselines.formulas`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..beeping.noise import BernoulliNoise, NoiseModel, NoiselessChannel
from ..congest.algorithm import BroadcastCongestAlgorithm
from ..congest.vectorized import (
    ObjectAlgorithmsAdapter,
    VectorizedBroadcastNetwork,
    drive,
    inbox_from_lists,
    plane_ints,
)
from ..core.stats import SimulationStats
from ..core.transpiler import TranspiledRunResult
from ..errors import ConfigurationError
from ..graphs import Topology
from ..rng import derive_seed
from .coloring import greedy_distance2_coloring
from .tdma import simulate_round_tdma

__all__ = ["agl_repetitions", "TDMABroadcastSimulator"]


def agl_repetitions(num_nodes: int, eps: float, beta: int = 4) -> int:
    """The repetition factor ``ρ = β log₂ n`` the noisy regime needs.

    ``beta`` scales with how small a failure probability is required; the
    default mirrors the practical preset philosophy of
    :func:`repro.core.practical_c`.
    """
    if eps == 0.0:
        return 1
    return max(1, beta * math.ceil(math.log2(max(2, num_nodes))))


class TDMABroadcastSimulator:
    """Runs Broadcast CONGEST algorithms over colour-class TDMA beeping.

    Interface-compatible with :class:`repro.core.BeepSimulator` for the
    ``run_broadcast_congest`` entry point.
    """

    def __init__(
        self,
        topology: Topology,
        message_bits: int,
        eps: float = 0.0,
        seed: int = 0,
        ids: Sequence[int] | None = None,
        repetitions: int | None = None,
    ) -> None:
        n = topology.num_nodes
        if n < 2:
            raise ConfigurationError("simulation needs at least 2 nodes")
        self._network = VectorizedBroadcastNetwork(
            topology, ids=ids, message_bits=message_bits, seed=seed
        )
        self._coloring = greedy_distance2_coloring(topology)
        self._num_colors = max(self._coloring) + 1
        if repetitions is None:
            repetitions = agl_repetitions(n, eps)
        self._repetitions = repetitions
        self._channel: NoiseModel
        if eps == 0.0:
            self._channel = NoiselessChannel()
        else:
            self._channel = BernoulliNoise(eps, seed=derive_seed(seed, "tdma-noise"))

    @property
    def num_colors(self) -> int:
        """Colour classes in the greedy ``G²`` colouring."""
        return self._num_colors

    @property
    def repetitions(self) -> int:
        """Per-bit repetition factor ρ."""
        return self._repetitions

    @property
    def overhead(self) -> int:
        """Beeping rounds per simulated Broadcast CONGEST round."""
        return self._num_colors * (self._network.message_bits + 1) * self._repetitions

    def run_broadcast_congest(
        self,
        algorithms: Sequence[BroadcastCongestAlgorithm],
        max_rounds: int,
    ) -> TranspiledRunResult:
        """Drive the algorithms, one TDMA-simulated round per BC round."""
        stats = SimulationStats()
        round_offset = 0

        def deliver(
            round_index: int, words: np.ndarray, active: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray]:
            nonlocal round_offset
            outcome = simulate_round_tdma(
                self._network.topology,
                plane_ints(words, active),
                self._coloring,
                self._network.message_bits,
                channel=self._channel,
                repetitions=self._repetitions,
                start_round=round_offset,
            )
            round_offset += outcome.beep_rounds_used
            stats.record_round(
                beep_rounds=outcome.beep_rounds_used,
                success=outcome.success,
                phase1_errors=0,
                phase2_errors=int((~outcome.per_node_success).sum()),
                r_collision=False,
            )
            return inbox_from_lists(outcome.decoded, self._network.message_bits)

        result = drive(
            self._network.vector_context(),
            ObjectAlgorithmsAdapter(algorithms),
            max_rounds,
            deliver,
        )
        return TranspiledRunResult(
            outputs=result.outputs, finished=result.finished, stats=stats
        )

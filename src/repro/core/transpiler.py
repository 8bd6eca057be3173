"""Theorem 11 / Corollary 12: running message-passing algorithms on beeps.

:class:`BeepSimulator` runs Broadcast CONGEST algorithms through the one
round loop, :func:`~repro.congest.vectorized.drive`, with a delivery that
realises every communication round by Algorithm 1 on the (noisy) beeping
substrate.  Nodes consume whatever they *decoded* — when a simulated round
fails (a low-probability event), downstream state diverges exactly as it
would on a real network, which is what the end-to-end experiments measure.

CONGEST algorithms run through :class:`~repro.core.congest_wrapper.
CongestViaBroadcast` at the additional ``Δ``-factor of Corollary 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..beeping.noise import NoiseModel
from ..congest.algorithm import BroadcastCongestAlgorithm, CongestAlgorithm
from ..congest.vectorized import (
    VectorizedBroadcastAlgorithm,
    VectorizedBroadcastNetwork,
    as_vectorized,
    drive,
    inbox_from_lists,
    plane_ints,
)
from ..errors import ConfigurationError
from ..graphs import Topology
from .congest_wrapper import wrap_congest_algorithms
from .parameters import CandidatePolicy, SimulationParameters
from .round_simulator import BroadcastSession
from .stats import SimulationStats

__all__ = ["TranspiledRunResult", "BeepSimulator"]


@dataclass(frozen=True)
class TranspiledRunResult:
    """Outcome of a full simulated execution.

    Attributes
    ----------
    outputs:
        Per-node algorithm outputs.
    finished:
        Whether every node terminated within the round budget.
    stats:
        Round/failure accounting, including the measured overhead (beeping
        rounds per simulated round — the Theorem 11 quantity).
    """

    outputs: list[object]
    finished: bool
    stats: SimulationStats


class BeepSimulator:
    """Runs Broadcast CONGEST / CONGEST algorithms over a beeping network.

    Parameters
    ----------
    topology:
        The network.
    params:
        Code parameters; defaults to
        :meth:`SimulationParameters.for_network` with practical constants
        for the given noise rate.
    eps:
        Channel noise rate (used only when ``params`` is omitted).
    seed:
        Master seed for codes, noise, and per-node local randomness.
    ids:
        Node identifiers (default ``0..n-1``).
    policy, num_decoys:
        Candidate enumeration policy for the decoders.
    gamma:
        Message-size multiplier ``γ`` when deriving default parameters.
    channel:
        Override the noise channel (defaults to the one implied by the
        parameters' noise rate) — the failure-injection seam.
    """

    def __init__(
        self,
        topology: Topology,
        params: SimulationParameters | None = None,
        eps: float = 0.0,
        seed: int = 0,
        ids: Sequence[int] | None = None,
        policy: CandidatePolicy = CandidatePolicy.ORACLE_WITH_DECOYS,
        num_decoys: int = 16,
        gamma: int = 4,
        channel: "NoiseModel | None" = None,
    ) -> None:
        n = topology.num_nodes
        if n < 2:
            raise ConfigurationError("simulation needs at least 2 nodes")
        if params is None:
            params = SimulationParameters.for_network(
                num_nodes=n,
                max_degree=topology.max_degree,
                eps=eps,
                gamma=gamma,
            )
        self._network = VectorizedBroadcastNetwork(
            topology, ids=ids, message_bits=params.message_bits, seed=seed
        )
        self._params = params
        # All per-execution state — codes, channel, decoder matrices — is
        # built once here and amortised across every simulated round of
        # every run.
        self._session = BroadcastSession(
            topology,
            params,
            seed,
            policy=policy,
            num_decoys=num_decoys,
            channel=channel,
        )

    @property
    def params(self) -> SimulationParameters:
        """The code parameters in force."""
        return self._params

    @property
    def topology(self) -> Topology:
        """The network topology."""
        return self._network.topology

    @property
    def session(self) -> BroadcastSession:
        """The amortised round engine driving the simulation."""
        return self._session

    def run_broadcast_congest(
        self,
        algorithms: "Sequence[BroadcastCongestAlgorithm] | VectorizedBroadcastAlgorithm",
        max_rounds: int,
    ) -> TranspiledRunResult:
        """Simulate a Broadcast CONGEST execution end-to-end (Theorem 11).

        ``algorithms`` is either the classic per-node object sequence,
        which runs wrapped in an :class:`~repro.congest.vectorized.
        ObjectAlgorithmsAdapter`, or one whole-network
        :class:`~repro.congest.vectorized.VectorizedBroadcastAlgorithm`.
        Every round's broadcasts go through one
        :meth:`~repro.core.round_simulator.BroadcastSession.run_round`,
        and every run starts at beeping round 0.
        """
        stats = SimulationStats()

        def deliver(
            round_index: int, words: np.ndarray, active: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray]:
            outcome = self._session.run_round(plane_ints(words, active))
            stats.record_round(
                beep_rounds=outcome.beep_rounds_used,
                success=outcome.success,
                phase1_errors=outcome.phase1_errors,
                phase2_errors=outcome.phase2_errors,
                r_collision=outcome.r_collision,
            )
            return inbox_from_lists(outcome.decoded, self._params.message_bits)

        self._session.reset()
        result = drive(
            self._network.vector_context(),
            as_vectorized(algorithms),
            max_rounds,
            deliver,
        )
        return TranspiledRunResult(
            outputs=result.outputs, finished=result.finished, stats=stats
        )

    def run_congest(
        self,
        algorithms: Sequence[CongestAlgorithm],
        max_rounds: int,
        payload_bits: int | None = None,
    ) -> TranspiledRunResult:
        """Simulate a CONGEST execution via Corollary 12.

        Each CONGEST round costs ``Δ`` simulated Broadcast CONGEST rounds
        (plus one initial ID-discovery round); ``max_rounds`` counts
        *CONGEST* rounds.
        """
        wrapped = wrap_congest_algorithms(
            algorithms,
            ids=self._network.ids,
            message_bits=self._params.message_bits,
            payload_bits=payload_bits,
        )
        bc_budget = 1 + max_rounds * max(1, self.topology.max_degree)
        return self.run_broadcast_congest(wrapped, bc_budget)

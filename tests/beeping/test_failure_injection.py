"""Failure injection: adversarial channels and graceful degradation.

The decoders must *detect and record* failure (wrong decodings flagged in
the outcome, executions diverging like a real network would) rather than
crash, even under channels far outside the model's ε < 1/2 assumption.
"""

from __future__ import annotations

import numpy as np

from repro.beeping.noise import NoiseModel
from repro.core import BroadcastSession, SimulationParameters
from repro.core.transpiler import BeepSimulator
from repro.graphs import Topology, random_regular_graph
from tests.core.test_transpiler import GossipSum


class AllFlipChannel(NoiseModel):
    """Deterministically inverts every heard bit (ε = 1 — worse than the
    model ever allows)."""

    @property
    def eps(self) -> float:
        return 0.49  # reported rate; actual behaviour is total inversion

    def apply(self, received: np.ndarray, round_index: int) -> np.ndarray:
        return ~np.asarray(received, dtype=bool)


class SilenceChannel(NoiseModel):
    """Erases everything: devices hear permanent silence."""

    @property
    def eps(self) -> float:
        return 0.0

    def apply(self, received: np.ndarray, round_index: int) -> np.ndarray:
        return np.zeros_like(np.asarray(received, dtype=bool))


class TestAdversarialChannels:
    def test_total_inversion_fails_cleanly(self, regular12):
        params = SimulationParameters(message_bits=6, max_degree=3, eps=0.1, c=5)
        outcome = BroadcastSession(
            regular12, params, 0, channel=AllFlipChannel()
        ).run_round([v % 64 for v in range(12)])
        # no exception; failure is visible in the outcome
        assert not outcome.success
        assert outcome.phase1_errors > 0

    def test_total_silence_decodes_nothing(self, regular12):
        params = SimulationParameters(message_bits=6, max_degree=3, eps=0.1, c=5)
        outcome = BroadcastSession(
            regular12, params, 0, channel=SilenceChannel()
        ).run_round([v % 64 for v in range(12)])
        assert not outcome.success
        # silence carries no codeword: nothing should be accepted
        assert all(len(s) == 0 for s in outcome.accepted_sets)

    def test_transpiler_keeps_running_through_failures(self, regular12):
        """Under a hostile channel the simulated execution diverges from
        the native one (wrong deliveries), but the engine completes and
        accounts every failed round."""
        params = SimulationParameters(message_bits=6, max_degree=3, eps=0.1, c=5)
        simulator = BeepSimulator(
            regular12, params=params, seed=0, channel=AllFlipChannel()
        )
        result = simulator.run_broadcast_congest(
            [GossipSum(horizon=3) for _ in range(12)], max_rounds=5
        )
        assert result.finished
        assert result.stats.failed_rounds == result.stats.simulated_rounds
        assert result.stats.success_rate == 0.0


class TestMarginalNoise:
    def test_noise_just_under_half_mostly_fails(self, regular12):
        """ε → 1/2 carries almost no information; at fixed practical c the
        success rate should collapse — evidence the eps-threshold coupling
        in the decoder is real, not vestigial."""
        from repro.beeping.noise import BernoulliNoise

        params = SimulationParameters(message_bits=6, max_degree=3, eps=0.45, c=8)
        failures = 0
        for seed in range(4):
            outcome = BroadcastSession(
                regular12, params, seed, channel=BernoulliNoise(0.45, seed=seed)
            ).run_round([v % 64 for v in range(12)])
            failures += not outcome.success
        assert failures >= 2

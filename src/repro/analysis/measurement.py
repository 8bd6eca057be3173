"""Measurement helpers: repeated-trial success rates and scaling fits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.parameters import SimulationParameters
from ..core.round_simulator import BroadcastSession
from ..errors import ConfigurationError
from ..graphs import Topology
from ..rng import derive_rng, random_bits_many

__all__ = ["SuccessStats", "measure_round_success", "fit_linear_factor"]


@dataclass(frozen=True)
class SuccessStats:
    """Aggregated outcome of repeated simulated rounds.

    Attributes
    ----------
    trials:
        Simulated rounds run.
    failures:
        Rounds with at least one misdecoding node.
    phase1_node_errors, phase2_node_errors:
        Summed per-node error counts across trials.
    """

    trials: int
    failures: int
    phase1_node_errors: int
    phase2_node_errors: int

    @property
    def success_rate(self) -> float:
        """Fraction of trials in which every node decoded perfectly."""
        if self.trials == 0:
            return 1.0
        return 1.0 - self.failures / self.trials


def measure_round_success(
    topology: Topology,
    params: SimulationParameters,
    trials: int,
    seed: int = 0,
) -> SuccessStats:
    """Run ``trials`` independent Algorithm 1 rounds with random messages."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    n = topology.num_nodes
    message_rng = derive_rng(seed, "measurement-messages")
    failures = 0
    p1 = 0
    p2 = 0
    session = BroadcastSession(
        topology, params, seed, codes=params.combined_code(seed)
    )
    for _ in range(trials):
        messages = random_bits_many(message_rng, n, params.message_bits)
        outcome = session.run_round(messages)
        failures += 0 if outcome.success else 1
        p1 += outcome.phase1_errors
        p2 += outcome.phase2_errors
    return SuccessStats(
        trials=trials,
        failures=failures,
        phase1_node_errors=p1,
        phase2_node_errors=p2,
    )


def fit_linear_factor(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope through the origin for ``y ≈ slope · x``.

    Used to check measured overheads scale linearly in a predictor (e.g.
    rounds vs ``Δ log n``): after dividing out the fit, residual spread
    should be small if the shape holds.
    """
    xs_arr = np.asarray(xs, dtype=float)
    ys_arr = np.asarray(ys, dtype=float)
    if xs_arr.shape != ys_arr.shape or xs_arr.size == 0:
        raise ConfigurationError("need equal-length, non-empty samples")
    denominator = float(np.dot(xs_arr, xs_arr))
    if denominator == 0.0:
        raise ConfigurationError("all-zero predictor")
    return float(np.dot(xs_arr, ys_arr) / denominator)

"""Measurement helpers: repeated-trial success rates and scaling fits."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.parameters import SimulationParameters
from ..core.round_simulator import BroadcastSession
from ..core.stats import SimulationStats
from ..errors import ConfigurationError
from ..graphs import Topology
from ..rng import derive_rng, random_bits_many

__all__ = ["measure_round_success", "fit_linear_factor"]


def measure_round_success(
    topology: Topology,
    params: SimulationParameters,
    trials: int,
    seed: int = 0,
) -> SimulationStats:
    """Run ``trials`` independent Algorithm 1 rounds with random messages.

    Each round's outcome is folded into the returned
    :class:`SimulationStats`.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    n = topology.num_nodes
    message_rng = derive_rng(seed, "measurement-messages")
    stats = SimulationStats()
    session = BroadcastSession(
        topology, params, seed, codes=params.combined_code(seed)
    )
    for _ in range(trials):
        messages = random_bits_many(message_rng, n, params.message_bits)
        outcome = session.run_round(messages)
        stats.record_round(
            beep_rounds=outcome.beep_rounds_used,
            success=outcome.success,
            phase1_errors=outcome.phase1_errors,
            phase2_errors=outcome.phase2_errors,
            r_collision=outcome.r_collision,
        )
    return stats


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

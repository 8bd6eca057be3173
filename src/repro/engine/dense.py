"""The scipy-CSR/numpy reference kernel.

A sparse boolean matrix product gives the OR-of-neighbours, then the
channel is applied to the dense heard matrix.  It defines the bit-exact
semantics the bit-packed kernel must reproduce, and
:func:`repro.engine.run_schedule_batch` runs it on schedules too short
to fill packed words.

The replica batch stacks all ``R`` replica schedules along the round
axis — ``(R, n, rounds)`` becomes ``(n, R * rounds)`` — so the
OR-of-neighbours for the whole batch is *one* CSR matrix product (each
column is independent, so the stacking is exact); only the channel is
applied per replica, because each replica carries its own noise stream
and start round.  A single schedule is a batch of one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .base import (
    SimulationBackend,
    normalize_batch_args,
    validate_schedule_batch,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..beeping.noise import NoiseModel
    from ..graphs import Topology

__all__ = ["DenseBackend"]


class DenseBackend(SimulationBackend):
    """Dense boolean execution over the CSR adjacency matrix."""

    # perfbench/seams.py wraps this name from the class __dict__.
    def run_schedule(
        self,
        topology: "Topology",
        schedule: np.ndarray,
        channel: "NoiseModel | None" = None,
        start_round: int = 0,
    ) -> np.ndarray:
        return super().run_schedule(topology, schedule, channel, start_round)

    def run_schedule_batch(
        self,
        topology: "Topology",
        schedules: np.ndarray,
        channels: "NoiseModel | Sequence[NoiseModel | None] | None" = None,
        start_rounds: "int | Sequence[int] | None" = None,
    ) -> np.ndarray:
        """One stacked CSR matvec for all replicas, channels applied per replica."""
        schedules = validate_schedule_batch(topology, schedules)
        replicas, n, rounds = schedules.shape
        channel_list, start_list = normalize_batch_args(
            replicas, channels, start_rounds
        )
        if replicas == 0 or n == 0:
            return np.zeros_like(schedules)
        stacked = schedules.transpose(1, 0, 2).reshape(n, replicas * rounds)
        received = (topology.neighbor_or(stacked) | stacked).reshape(
            n, replicas, rounds
        )
        return np.stack(
            [
                channel_list[r].apply(received[:, r, :], start_list[r])
                for r in range(replicas)
            ]
        )

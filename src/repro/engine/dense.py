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
and start round.  A single schedule is a batch of one.  The kernel
takes the executor's checked arguments, one channel and one start round
per replica, and checks nothing again.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..beeping.noise import NoiseModel, NoiselessChannel
from ..graphs import Topology

__all__ = ["DenseBackend"]


class DenseBackend:
    """Dense boolean execution over the CSR adjacency matrix."""

    # perfbench/seams.py wraps this name from the class __dict__.
    def run_schedule(
        self,
        topology: Topology,
        schedule: np.ndarray,
        channel: NoiseModel | None = None,
        start_round: int = 0,
    ) -> np.ndarray:
        """One ``(n, rounds)`` schedule, as a batch of one."""
        channels = [NoiselessChannel() if channel is None else channel]
        schedules = np.asarray(schedule, dtype=bool)[np.newaxis]
        return self.run_schedule_batch(
            topology, schedules, channels, [start_round]
        )[0]

    def run_schedule_batch(
        self,
        topology: Topology,
        schedules: np.ndarray,
        channels: Sequence[NoiseModel],
        start_rounds: Sequence[int],
    ) -> np.ndarray:
        """One stacked CSR matvec for all replicas, channels applied per replica.

        ``schedules`` is a boolean ``(R, n, rounds)`` array whose replica
        ``r`` runs through ``channels[r]`` from ``start_rounds[r]``; the
        executor has checked all three.
        """
        replicas, n, rounds = schedules.shape
        if replicas == 0 or n == 0:
            return np.zeros_like(schedules)
        stacked = schedules.transpose(1, 0, 2).reshape(n, replicas * rounds)
        received = (topology.neighbor_or(stacked) | stacked).reshape(
            n, replicas, rounds
        )
        return np.stack(
            [
                channels[r].apply(received[:, r, :], start_rounds[r])
                for r in range(replicas)
            ]
        )

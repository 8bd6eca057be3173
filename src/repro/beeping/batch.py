"""Vectorised executor for schedule-driven beeping phases.

The code-transmission phases of Algorithm 1 are *oblivious*: every device's
beep pattern for the whole phase is fixed before the phase starts (it is a
codeword).  For those phases the entire execution reduces to a carrier-sense
primitive over the whole schedule at once, which is orders of magnitude
faster than the per-round engine while being bit-identical to it (the noise
model keys flips by global round number, and the equivalence is
property-tested in ``tests/beeping/test_batch.py``).

Execution is delegated to the schedule executor,
:func:`repro.engine.run_schedule_batch`, which picks its dense or
bit-packed kernel by schedule size.

Every schedule runs as a replica batch: :func:`run_schedule` is
:func:`run_schedule_batch` on a batch of one.  Dynamic networks plug in
*above* the executor: when the topology is a
:class:`~repro.beeping.noise.DynamicTopology`, the batch runner splits
the schedules at epoch boundaries and executes each segment against that
epoch's masked static topology (noise keying stays global-round, so the
split is invisible to the flip stream).  The kernels therefore only ever
see static topologies, and the bit-identity invariant across dense /
bit-packed / batched execution extends to churn scenarios with no
per-kernel code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import engine
from ..engine import normalize_batch_args, validate_schedule, validate_schedule_batch
from ..graphs import Topology
from .noise import DynamicTopology, NoiseModel

__all__ = ["run_schedule", "run_schedule_batch"]


def run_schedule(
    topology: Topology | DynamicTopology,
    schedule: np.ndarray,
    channel: NoiseModel | None = None,
    start_round: int = 0,
) -> np.ndarray:
    """Execute a fixed beep schedule and return what every device hears.

    Parameters
    ----------
    topology:
        The network — a static :class:`~repro.graphs.Topology` or a
        :class:`~repro.beeping.noise.DynamicTopology` churn schedule
        (executed epoch segment by epoch segment against its masks).
    schedule:
        Boolean ``(n, rounds)`` matrix; ``schedule[v, t]`` means device
        ``v`` beeps in phase round ``t`` (and listens otherwise).
    channel:
        Noise model (noiseless by default).
    start_round:
        Global round number of the phase's first round; keys the noise
        stream (and the churn epochs) so chained phases reproduce the
        per-round engine exactly.

    Returns
    -------
    numpy.ndarray
        Boolean ``(n, rounds)`` matrix of heard bits: own beep or
        neighbours' OR, passed through the channel.  It is
        :func:`run_schedule_batch` on a batch of one.
    """
    schedule = validate_schedule(topology, schedule)
    return run_schedule_batch(
        topology, schedule[np.newaxis], [channel], [start_round]
    )[0]


def run_schedule_batch(
    topology: Topology | DynamicTopology,
    schedules: np.ndarray,
    channels: NoiseModel | Sequence[NoiseModel | None] | None,
    start_rounds: int | Sequence[int] | None,
) -> np.ndarray:
    """Execute R replica schedules over one shared topology in one call.

    ``schedules`` is boolean ``(R, n, rounds)``; ``channels`` and
    ``start_rounds`` are broadcast to one entry per replica as
    :func:`~repro.engine.normalize_batch_args` does (a ``None`` channel
    means noiseless).  Shape and count mistakes raise
    :class:`~repro.errors.ConfigurationError`.  Static topologies go
    straight to :func:`repro.engine.run_schedule_batch`.  A
    :class:`~repro.beeping.noise.DynamicTopology` is executed epoch
    segment by epoch segment when every replica shares one start round
    (the common case — :class:`~repro.core.round_simulator.BatchedSession`
    advances replicas in lock-step), and replica by replica otherwise,
    since differing starts put epoch boundaries at different columns.
    Either way the result is bit-identical to R separate
    :func:`run_schedule` calls.
    """
    schedules = validate_schedule_batch(topology, schedules)
    replicas, _, rounds = schedules.shape
    channel_list, starts = normalize_batch_args(
        replicas, channels, start_rounds
    )
    if not isinstance(topology, DynamicTopology):
        return engine.run_schedule_batch(
            topology, schedules, channel_list, starts
        )
    heard = np.empty_like(schedules)
    if len(set(starts)) > 1:
        for index in range(replicas):
            heard[index : index + 1] = run_schedule_batch(
                topology,
                schedules[index : index + 1],
                channel_list[index : index + 1],
                starts[index : index + 1],
            )
        return heard
    start_round = starts[0] if starts else 0
    for start, stop in topology.segments(start_round, rounds):
        lo = start - start_round
        hi = stop - start_round
        heard[:, :, lo:hi] = engine.run_schedule_batch(
            topology.topology_at(start),
            schedules[:, :, lo:hi],
            channel_list,
            start,
        )
    return heard

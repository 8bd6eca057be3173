"""The base class of the two schedule kernels.

A kernel implements one method,
:meth:`SimulationBackend.run_schedule_batch`: execute ``R`` seed-replica
schedules, each a fixed boolean ``(n, rounds)`` beep schedule, over the
*same* topology in one call and return the stacked heard matrices.  The
base class's :meth:`SimulationBackend.run_schedule` is a batch of one.
Within the library only :func:`repro.engine.run_schedule_batch` calls
the kernels; it picks one by schedule size.

The kernels are interchangeable: :class:`~repro.engine.bitpacked.
BitpackedBackend` must be *bit-identical* to :class:`~repro.engine.dense.
DenseBackend` on the same inputs, including under
:class:`~repro.beeping.noise.BernoulliNoise` (the noise stream is keyed
by ``(seed, round)``, so the flip pattern is a pure function of the
inputs, not of the execution strategy).  Along the replica axis,
``run_schedule_batch(schedules)[r]`` must equal the batch of one holding
replica ``r``'s schedule, channel and start round.  These contracts are
property-tested in ``tests/beeping/test_batch.py``,
``tests/engine/test_backends.py`` and
``tests/engine/test_batched_backends.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..beeping.noise import NoiseModel
    from ..graphs import Topology

__all__ = [
    "SimulationBackend",
    "validate_schedule",
    "validate_schedule_batch",
    "normalize_batch_args",
]


def validate_schedule(topology: "Topology", schedule: np.ndarray) -> np.ndarray:
    """Coerce a beep schedule to boolean and check its shape against ``topology``."""
    schedule = np.asarray(schedule, dtype=bool)
    if schedule.ndim != 2:
        raise ConfigurationError("schedule must be an (n, rounds) matrix")
    if schedule.shape[0] != topology.num_nodes:
        raise ConfigurationError(
            f"schedule has {schedule.shape[0]} rows, expected "
            f"{topology.num_nodes}"
        )
    return schedule


def validate_schedule_batch(
    topology: "Topology", schedules: np.ndarray
) -> np.ndarray:
    """Coerce a replica batch to boolean ``(R, n, rounds)`` and check its shape."""
    schedules = np.asarray(schedules, dtype=bool)
    if schedules.ndim != 3:
        raise ConfigurationError(
            "batched schedules must be an (R, n, rounds) array"
        )
    if schedules.shape[1] != topology.num_nodes:
        raise ConfigurationError(
            f"batched schedules have {schedules.shape[1]} rows per replica, "
            f"expected {topology.num_nodes}"
        )
    return schedules


def normalize_batch_args(
    replicas: int,
    channels: "NoiseModel | Sequence[NoiseModel | None] | None",
    start_rounds: "int | Sequence[int] | None",
) -> "tuple[list[NoiseModel], list[int]]":
    """Broadcast per-batch channel/offset arguments to one entry per replica.

    ``channels`` may be ``None`` (noiseless everywhere), a single
    :class:`~repro.beeping.noise.NoiseModel` shared by every replica, or a
    sequence of exactly ``replicas`` models, in which a ``None`` entry
    means noiseless for that replica.  ``start_rounds`` likewise accepts
    ``None`` (all zero), a single offset, or one offset per replica.
    Length mismatches and negative offsets raise
    :class:`ConfigurationError`.
    """
    from ..beeping.noise import NoiseModel, NoiselessChannel

    if channels is None:
        channel_list = [NoiselessChannel() for _ in range(replicas)]
    elif isinstance(channels, NoiseModel):
        channel_list = [channels] * replicas
    else:
        channel_list = [
            NoiselessChannel() if channel is None else channel
            for channel in channels
        ]
        if len(channel_list) != replicas:
            raise ConfigurationError(
                f"got {len(channel_list)} channels for {replicas} replicas"
            )
    if start_rounds is None:
        start_list = [0] * replicas
    elif isinstance(start_rounds, (int, np.integer)):
        start_list = [int(start_rounds)] * replicas
    else:
        start_list = [int(offset) for offset in start_rounds]
        if len(start_list) != replicas:
            raise ConfigurationError(
                f"got {len(start_list)} start rounds for {replicas} replicas"
            )
    for offset in start_list:
        if offset < 0:
            raise ConfigurationError(f"start rounds must be >= 0, got {offset}")
    return channel_list, start_list


class SimulationBackend(ABC):
    """Executes beep schedules over a :class:`~repro.graphs.Topology`.

    Kernels are stateless (all state lives in the topology and channel), so
    a single instance can be shared freely across sessions and threads.
    """

    @abstractmethod
    def run_schedule_batch(
        self,
        topology: "Topology",
        schedules: np.ndarray,
        channels: "NoiseModel | Sequence[NoiseModel | None] | None" = None,
        start_rounds: "int | Sequence[int] | None" = None,
    ) -> np.ndarray:
        """Execute ``R`` replica schedules over one topology in a single call.

        ``schedules`` is a boolean ``(R, n, rounds)`` array — replica ``r``'s
        schedule is ``schedules[r]`` (``schedules[r, v, t]`` means device
        ``v`` beeps in phase round ``t``); ``channels`` and
        ``start_rounds`` are broadcast per :func:`normalize_batch_args`.
        The result is the same-shaped stack of heard matrices: own beep or
        neighbours' OR, passed through replica ``r``'s channel with its
        noise stream keyed from replica ``r``'s start round.
        """

    def run_schedule(
        self,
        topology: "Topology",
        schedule: np.ndarray,
        channel: "NoiseModel | None" = None,
        start_round: int = 0,
    ) -> np.ndarray:
        """Execute a fixed beep schedule and return what every device hears.

        ``schedule`` is a boolean ``(n, rounds)`` matrix; the result is the
        same-shaped heard matrix.  It is :meth:`run_schedule_batch` on a
        batch of one, so every kernel has exactly one schedule path.
        """
        schedule = validate_schedule(topology, schedule)
        return self.run_schedule_batch(
            topology, schedule[np.newaxis], [channel], [start_round]
        )[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

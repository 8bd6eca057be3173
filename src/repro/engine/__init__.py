"""The schedule executor of the beeping substrate.

Everything that executes beep schedules — :func:`run_schedule`,
:class:`repro.core.BroadcastSession` and the CONGEST runners above it —
ends in :func:`run_schedule_batch`, which checks its arguments once and
runs ``R`` replica schedules on one of two kernels:

* :class:`~repro.engine.dense.DenseBackend` — the scipy-CSR/numpy
  reference: one sparse product gives the OR-of-neighbours;
* :class:`~repro.engine.bitpacked.BitpackedBackend` — schedules packed
  into ``uint64`` words, 64 rounds per OR/XOR.

Both are bit-identical, including under every windowed channel (the
noise stream is keyed by ``(seed, round)``, so the flip pattern is a pure
function of the inputs, not of the execution strategy), so the choice
between them is a size rule and nothing else: packed words once a
schedule has enough rounds to fill them and enough bits to amortise
packing, the CSR product below that.  Nothing outside this module
chooses a kernel.  Each kernel's one schedule path is its
``run_schedule_batch``, which takes one channel and one start round per
replica as this module hands them over; its ``run_schedule`` is a batch
of one.  Along the replica axis, ``run_schedule_batch(schedules)[r]``
must equal the batch of one holding replica ``r``'s schedule, channel
and start round.  These contracts are property-tested in
``tests/beeping/test_batch.py``, ``tests/engine/test_backends.py`` and
``tests/engine/test_batched_backends.py``.

A :class:`~repro.beeping.noise.DynamicTopology` is split here, at its
epoch boundaries, into static segments (noise keying stays global-round,
so the split is invisible to the flip stream).  The kernels therefore
only ever see static topologies, and their bit-identity extends to churn
scenarios with no per-kernel code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..beeping.noise import DynamicTopology, NoiseModel, NoiselessChannel
from ..errors import ConfigurationError
from ..graphs import Topology
from ..packing import WORD_BITS, pack_rows, unpack_rows, words_for
from .bitpacked import BitpackedBackend
from .dense import DenseBackend
from .mp import START_METHOD, mp_context

__all__ = [
    "run_schedule",
    "run_schedule_batch",
    "mp_context",
    "START_METHOD",
    "WORD_BITS",
    "pack_rows",
    "unpack_rows",
    "words_for",
]

_DENSE = DenseBackend()
_PACKED = BitpackedBackend()
_NOISELESS = NoiselessChannel()

#: Packed words need at least one full word of rounds before the
#: 64-per-word reduction compresses anything ...
_PACKED_MIN_ROUNDS = 64
#: ... and enough schedule bits (``n * rounds``) to amortise pack/unpack.
#: Below either threshold the CSR product is 2–6× faster.
_PACKED_MIN_CELLS = 4096


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
    schedules = np.asarray(schedule, dtype=bool)[np.newaxis]
    return run_schedule_batch(topology, schedules, [channel], [start_round])[0]


def run_schedule_batch(
    topology: Topology | DynamicTopology,
    schedules: np.ndarray,
    channels: NoiseModel | Sequence[NoiseModel | None] | None = None,
    start_rounds: int | Sequence[int] | None = None,
) -> np.ndarray:
    """Execute ``R`` replica schedules over one shared topology in one call.

    ``schedules`` is a boolean ``(R, n, rounds)`` array.  ``channels`` may
    be ``None`` (noiseless everywhere), one
    :class:`~repro.beeping.noise.NoiseModel` shared by every replica, or
    one model per replica, in which a ``None`` entry means noiseless;
    ``start_rounds`` likewise accepts ``None`` (all zero), one offset, or
    one offset per replica.  Shape and count mistakes and negative start
    rounds raise :class:`~repro.errors.ConfigurationError`.

    The result is the same-shaped stack of heard matrices: own beep or
    neighbours' OR, passed through replica ``r``'s channel with its noise
    stream keyed from replica ``r``'s start round.  A
    :class:`~repro.beeping.noise.DynamicTopology` runs epoch segment by
    epoch segment, all replicas in lock-step when they share one start
    round (as :class:`~repro.core.round_simulator.BatchedSession`'s do)
    and replica by replica otherwise, since differing starts put epoch
    boundaries at different columns.  Each static run picks its kernel
    from its size alone, which cannot change a bit of the result.
    """
    schedules = np.asarray(schedules, dtype=bool)
    if schedules.ndim != 3 or schedules.shape[1] != topology.num_nodes:
        raise ConfigurationError(
            f"schedules must have shape (replicas, {topology.num_nodes}, "
            f"rounds), got {schedules.shape}"
        )
    replicas = schedules.shape[0]
    channel_list: list[NoiseModel]
    if channels is None:
        channel_list = [_NOISELESS] * replicas
    elif isinstance(channels, NoiseModel):
        channel_list = [channels] * replicas
    else:
        channel_list = [_NOISELESS if c is None else c for c in channels]
    if start_rounds is None:
        starts = [0] * replicas
    elif isinstance(start_rounds, (int, np.integer)):
        starts = [int(start_rounds)] * replicas
    else:
        starts = [int(offset) for offset in start_rounds]
    for what, count in (("channels", len(channel_list)), ("start rounds", len(starts))):
        if count != replicas:
            raise ConfigurationError(f"got {count} {what} for {replicas} replicas")
    for offset in starts:
        if offset < 0:
            raise ConfigurationError(f"start rounds must be >= 0, got {offset}")
    if not isinstance(topology, DynamicTopology):
        return _run_static(topology, schedules, channel_list, starts)
    if len(set(starts)) <= 1:
        start_round = starts[0] if starts else 0
        return _run_epochs(topology, schedules, channel_list, start_round)
    return np.concatenate(
        [
            _run_epochs(
                topology, schedules[r : r + 1], channel_list[r : r + 1], start
            )
            for r, start in enumerate(starts)
        ]
    )


def _run_static(
    topology: Topology,
    schedules: np.ndarray,
    channels: list[NoiseModel],
    starts: list[int],
) -> np.ndarray:
    """Checked replicas over a static topology, on the kernel their size picks."""
    _, n, rounds = schedules.shape
    packed = rounds >= _PACKED_MIN_ROUNDS and n * rounds >= _PACKED_MIN_CELLS
    kernel = _PACKED if packed else _DENSE
    return kernel.run_schedule_batch(topology, schedules, channels, starts)


def _run_epochs(
    topology: DynamicTopology,
    schedules: np.ndarray,
    channels: list[NoiseModel],
    start_round: int,
) -> np.ndarray:
    """Lock-step replicas from ``start_round``, one static run per epoch segment."""
    heard = np.empty_like(schedules)
    for start, stop in topology.segments(start_round, schedules.shape[2]):
        lo, hi = start - start_round, stop - start_round
        heard[:, :, lo:hi] = _run_static(
            topology.topology_at(start),
            schedules[:, :, lo:hi],
            channels,
            [start] * len(channels),
        )
    return heard

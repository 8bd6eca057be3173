"""The schedule executor of the beeping substrate.

Everything that executes beep schedules — :func:`repro.beeping.run_schedule`,
:class:`repro.core.BroadcastSession` and the CONGEST runners above it —
ends in :func:`run_schedule_batch`, which runs ``R`` replica schedules
over one static topology on one of two kernels:

* :class:`~repro.engine.dense.DenseBackend` — the scipy-CSR/numpy
  reference: one sparse product gives the OR-of-neighbours;
* :class:`~repro.engine.bitpacked.BitpackedBackend` — schedules packed
  into ``uint64`` words, 64 rounds per OR/XOR.

Both are bit-identical (property-tested), so the choice between them is
a size rule and nothing else: packed words once a schedule has enough
rounds to fill them and enough bits to amortise packing, the CSR product
below that.  Nothing outside this module chooses a kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .base import normalize_batch_args, validate_schedule, validate_schedule_batch
from .bitpacked import BitpackedBackend
from .dense import DenseBackend
from .mp import START_METHOD, mp_context
from .packing import WORD_BITS, pack_rows, unpack_rows, words_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..beeping.noise import NoiseModel
    from ..graphs import Topology

__all__ = [
    "run_schedule_batch",
    "mp_context",
    "START_METHOD",
    "validate_schedule",
    "validate_schedule_batch",
    "normalize_batch_args",
    "WORD_BITS",
    "pack_rows",
    "unpack_rows",
    "words_for",
]

_DENSE = DenseBackend()
_PACKED = BitpackedBackend()

#: Packed words need at least one full word of rounds before the
#: 64-per-word reduction compresses anything ...
_PACKED_MIN_ROUNDS = 64
#: ... and enough schedule bits (``n * rounds``) to amortise pack/unpack.
#: Below either threshold the CSR product is 2–6× faster.
_PACKED_MIN_CELLS = 4096


def run_schedule_batch(
    topology: "Topology",
    schedules: np.ndarray,
    channels: "NoiseModel | Sequence[NoiseModel | None] | None" = None,
    start_rounds: "int | Sequence[int] | None" = None,
) -> np.ndarray:
    """Execute ``R`` replica schedules over one static topology.

    ``schedules`` is a boolean ``(R, n, rounds)`` array; ``channels`` and
    ``start_rounds`` are broadcast per :func:`normalize_batch_args`.  The
    result is the same-shaped stack of heard matrices: own beep or
    neighbours' OR, passed through replica ``r``'s channel with its noise
    stream keyed from replica ``r``'s start round.  The kernel is chosen
    from the schedule's size alone and cannot change a bit of the result.
    """
    schedules = validate_schedule_batch(topology, schedules)
    _, n, rounds = schedules.shape
    packed = rounds >= _PACKED_MIN_ROUNDS and n * rounds >= _PACKED_MIN_CELLS
    kernel = _PACKED if packed else _DENSE
    return kernel.run_schedule_batch(topology, schedules, channels, start_rounds)

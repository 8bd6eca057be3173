"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the same work takes up to twice as long from one minute to
the next (other tenants' load changes the core's clock and steals its
caches); CPU time tracks wall time, so neither removes it.  The worker runs
:func:`probe` before, between and after the measured intervals of a phase
(the set-ups, the timed units).  The median probe duration, next to the
fixed :data:`NOMINAL_S`, says how much slower than nominal the host ran
during the phase, and :func:`rescale` scales the phase's wall times by it.
The median keeps a probe that lands in a short burst from moving a run.

The probe mixes what the program spends its time on — Python integer and
dict work, SHA-256 keying of Philox generators, Philox uniforms thresholded
and packed, word-wise OR reductions and a float32 matrix product — but
calls nothing in ``repro``, so no change to the program can move it.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

__all__ = ["NOMINAL_S", "probe", "rescale"]

#: Median probe time on the reference host (2 vCPUs, one BLAS thread) when
#: the host was quiet.  A constant: it only sets the scale of rescaled
#: times, and must be re-measured if the probe's work changes.
NOMINAL_S = 0.16

_A = np.random.default_rng(1).random((192, 1024), dtype=np.float32)
_B = np.random.default_rng(2).random((1024, 192), dtype=np.float32)
_SEGMENTS = np.arange(0, 1024, 8)

#: Reference passes per probe: about 0.16 s on a quiet host.
_PASSES = 5


def probe() -> float:
    """Run the reference computation once; returns its wall time in seconds."""
    started = time.perf_counter()
    for _ in range(_PASSES):
        _reference_pass()
    return time.perf_counter() - started


def _reference_pass() -> None:
    table: dict[int, int] = {}
    accumulator = 0
    for value in range(40_000):
        table[value & 1023] = accumulator
        accumulator = (accumulator * 31 + value) & 0xFFFFFFFF
    for value in range(1_500):
        key = hashlib.sha256(value.to_bytes(8, "little")).digest()
        generator = np.random.Generator(
            np.random.Philox(key=int.from_bytes(key[:16], "little"))
        )
        generator.random(8)
    flips = np.random.Generator(np.random.Philox(key=7)).random((1024, 512)) < 0.02
    words = np.packbits(flips, axis=1).view(np.uint64)
    np.bitwise_or.reduceat(words, _SEGMENTS, axis=0)
    _A @ _B


def rescale(seconds: float, probes: "list[float]") -> float:
    """``seconds`` measured among ``probes``, at the host speed where the
    median probe takes :data:`NOMINAL_S`."""
    return seconds * NOMINAL_S / statistics.median(probes)

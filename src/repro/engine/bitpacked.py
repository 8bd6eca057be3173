"""The bit-packed kernel: 64 rounds per machine word.

Schedules are packed along the round axis into ``uint64`` words
(:mod:`repro.packing`), the OR-of-neighbours is computed with a
single segmented ``bitwise_or.reduceat`` over the CSR neighbour arrays
(64 rounds per word-OR instead of one integer multiply-add per round), and
noise is XORed in as the packed flip words that every windowed channel
of :mod:`repro.beeping.noise` stores, in the same word layout — so the
heard matrix is bit-identical to :class:`~repro.engine.dense.DenseBackend`
under every channel, for every ``start_round``, including phases that
straddle noise-window boundaries.

Schedules always run as a replica batch (a single schedule is a batch of
one): ``R`` replicas stack into one ``(R * n, words)`` word matrix, the
OR-of-neighbours becomes a single segmented reduction over a replicated
CSR (the neighbour arrays shifted by ``r * n`` per replica), and one loop
over the replicas XORs each windowed replica's
:meth:`~repro.beeping.noise.WindowedNoise.flip_block` words into that
replica's rows — the very flips that channel's own ``apply`` XORs in, so
every replica slice is bit-identical to the dense path.  Like the dense
kernel, it takes the executor's checked arguments, one channel and one
start round per replica, and checks nothing again.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..beeping.noise import (
    AdversarialNoise,
    BernoulliNoise,
    HeterogeneousNoise,
    NoiseModel,
    NoiselessChannel,
)
from ..graphs import Topology
from ..packing import pack_rows, unpack_rows

__all__ = ["BitpackedBackend"]

#: The exact channel types whose flips can be packed-XORed directly: the
#: windowed channels whose ``apply`` is exactly ``received`` XOR the
#: unpacked ``flip_block(...)`` words, so the kernel XORs those words into
#: its packed rows instead of unpacking the heard bits.  Exact types only:
#: a subclass may override ``apply``, and then only the generic boolean
#: fallback honours it.
_FLIP_BLOCK_TYPES = (BernoulliNoise, HeterogeneousNoise, AdversarialNoise)


class BitpackedBackend:
    """Packed-word execution: OR/XOR on ``uint64`` words, 64 rounds at a time."""

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

    #: Packed working-set budget per batched sub-chunk, in uint64 words.
    #: Gathers over a packed matrix larger than the cache hierarchy cost
    #: more than the per-call overhead they save, so oversized batches
    #: are processed in replica chunks whose packed schedule stays within
    #: this budget (results are per-replica independent, hence identical).
    #: 2^16 words = 512 KiB keeps a chunk inside typical L2/L3 slices.
    _BATCH_CHUNK_WORDS = 1 << 16

    def run_schedule_batch(
        self,
        topology: Topology,
        schedules: np.ndarray,
        channels: Sequence[NoiseModel],
        start_rounds: Sequence[int],
    ) -> np.ndarray:
        """Replica-axis packed execution: one segmented OR, per-replica flips.

        ``schedules`` is a boolean ``(R, n, rounds)`` array whose replica
        ``r`` runs through ``channels[r]`` from ``start_rounds[r]``; the
        executor has checked all three.
        """
        replicas, n, rounds = schedules.shape
        if replicas == 0:
            return np.zeros_like(schedules)
        packed = pack_rows(schedules.reshape(replicas * n, rounds))
        received = self._segmented_or(topology, packed, replicas)
        np.bitwise_or(received, packed, out=received)
        generic: list[int] = []
        for r, channel in enumerate(channels):
            if type(channel) in _FLIP_BLOCK_TYPES:
                if rounds:
                    rows = received[r * n : (r + 1) * n]
                    flips = channel.flip_block(start_rounds[r], rounds, n)
                    np.bitwise_xor(rows, flips, out=rows)
            elif type(channel) is not NoiselessChannel:
                generic.append(r)
        heard = unpack_rows(received, rounds).reshape(replicas, n, rounds)
        for r in generic:
            # Unknown channel: it only understands boolean matrices, so it
            # applies itself to the unpacked replica slice as usual.
            heard[r] = channels[r].apply(heard[r], start_rounds[r])
        return heard

    @staticmethod
    def _segmented_or(
        topology: Topology, packed: np.ndarray, replicas: int
    ) -> np.ndarray:
        """Per-node OR of neighbours' packed rows, via segmented reduction.

        ``packed`` is the ``(replicas * n, words)`` packed schedule —
        replica ``r`` owns rows ``r * n .. (r + 1) * n`` — and the result
        is the same-shaped matrix whose row for node ``v`` of replica
        ``r`` is the OR of the rows of ``v``'s neighbours *within that
        replica* (zeros for isolated nodes).  All replicas share one
        segmented ``bitwise_or.reduceat`` over the CSR neighbour arrays
        replicated with a ``r * n`` shift per replica; batches whose
        packed words exceed :data:`_BATCH_CHUNK_WORDS` run the gather in
        replica chunks so its working set stays cache-resident (replicas
        are independent, so chunking cannot change a bit).
        """
        adjacency = topology.adjacency
        indptr = adjacency.indptr
        indices = adjacency.indices
        out = np.zeros_like(packed)
        if indices.size == 0 or packed.shape[1] == 0:
            return out
        n = indptr.shape[0] - 1
        # The chunk working set is the gathered matrix (one row per
        # directed edge) plus the replica's packed rows, so budget both —
        # on dense neighbourhoods the edge term dominates.
        words_per_replica = max(1, (n + indices.size) * packed.shape[1])
        chunk = max(1, BitpackedBackend._BATCH_CHUNK_WORDS // words_per_replica)
        populated = np.flatnonzero(np.diff(indptr))
        starts = indptr[populated]
        for lo in range(0, replicas, chunk):
            shift = np.arange(min(chunk, replicas - lo), dtype=np.int64)[:, None]
            node_shift = (shift + lo) * n
            # reduceat over only the non-empty CSR segments: consecutive
            # populated starts delimit exactly one node's neighbour block
            # (empty segments between them contribute no indices), and
            # isolated nodes keep their zero rows.
            out[(populated + node_shift).ravel()] = np.bitwise_or.reduceat(
                packed[(indices + node_shift).ravel()],
                (starts + shift * indices.size).ravel(),
                axis=0,
            )
        return out

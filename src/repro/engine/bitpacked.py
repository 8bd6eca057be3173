"""The bit-packed kernel: 64 rounds per machine word.

Schedules are packed along the round axis into ``uint64`` words
(:mod:`~repro.engine.packing`), the OR-of-neighbours is computed with a
single segmented ``bitwise_or.reduceat`` over the CSR neighbour arrays
(64 rounds per word-OR instead of one integer multiply-add per round), and
Bernoulli noise is applied as packed Philox flip words built from the same
``(seed, window)``-keyed blocks as :class:`~repro.beeping.noise.
BernoulliNoise` — so the heard matrix is bit-identical to
:class:`~repro.engine.dense.DenseBackend` under every channel, for every
``start_round``, including phases that straddle noise-window boundaries.

Schedules always run as a replica batch (a single schedule is a batch of
one): ``R`` replicas stack into one ``(R * n, words)`` word matrix, the
OR-of-neighbours becomes a single segmented reduction over a replicated
CSR (the neighbour arrays shifted by ``r * n`` per replica), and one loop
over the replicas packs each windowed replica's
:meth:`~repro.beeping.noise.WindowedNoise.flip_block` and XORs it into
that replica's rows — the very flips that channel's own ``apply`` XORs
in, so every replica slice is bit-identical to the dense path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .base import (
    SimulationBackend,
    normalize_batch_args,
    validate_schedule_batch,
)
from .packing import pack_rows, unpack_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..beeping.noise import NoiseModel
    from ..graphs import Topology

__all__ = ["BitpackedBackend"]


def _flip_block_types() -> tuple[type, ...]:
    """The exact channel types whose flips can be packed-XORed directly.

    These are the windowed channels whose ``apply`` is exactly
    ``received ^ flip_block(...)`` — for them the kernel packs the
    Philox flip matrix into words instead of unpacking the heard bits.
    Exact types only: a subclass may override ``apply``, and then only
    the generic boolean fallback honours it.
    """
    from ..beeping.noise import (
        AdversarialNoise,
        BernoulliNoise,
        HeterogeneousNoise,
    )

    return (BernoulliNoise, HeterogeneousNoise, AdversarialNoise)


class BitpackedBackend(SimulationBackend):
    """Packed-word execution: OR/XOR on ``uint64`` words, 64 rounds at a time."""

    # perfbench/seams.py wraps this name from the class __dict__.
    def run_schedule(
        self,
        topology: "Topology",
        schedule: np.ndarray,
        channel: "NoiseModel | None" = None,
        start_round: int = 0,
    ) -> np.ndarray:
        return super().run_schedule(topology, schedule, channel, start_round)

    #: Packed working-set budget per batched sub-chunk, in uint64 words.
    #: Gathers over a packed matrix larger than the cache hierarchy cost
    #: more than the per-call overhead they save, so oversized batches
    #: are processed in replica chunks whose packed schedule stays within
    #: this budget (results are per-replica independent, hence identical).
    #: 2^16 words = 512 KiB keeps a chunk inside typical L2/L3 slices.
    _BATCH_CHUNK_WORDS = 1 << 16

    def run_schedule_batch(
        self,
        topology: "Topology",
        schedules: np.ndarray,
        channels: "NoiseModel | Sequence[NoiseModel | None] | None" = None,
        start_rounds: "int | Sequence[int] | None" = None,
    ) -> np.ndarray:
        """Replica-axis packed execution: one segmented OR, per-replica flips."""
        schedules = validate_schedule_batch(topology, schedules)
        replicas, n, rounds = schedules.shape
        channel_list, start_list = normalize_batch_args(
            replicas, channels, start_rounds
        )
        if replicas == 0:
            return np.zeros_like(schedules)
        from ..beeping.noise import NoiselessChannel

        flip_types = _flip_block_types()
        packed = pack_rows(schedules.reshape(replicas * n, rounds))
        received = self._segmented_or(topology, packed, replicas)
        np.bitwise_or(received, packed, out=received)
        # Exact-type checks: a subclass may override apply(), in which case
        # only the generic path below is guaranteed to honour it.
        generic: list[int] = []
        for r, channel in enumerate(channel_list):
            if type(channel) in flip_types:
                if rounds:
                    rows = received[r * n : (r + 1) * n]
                    flips = channel.flip_block(start_list[r], rounds, n)
                    np.bitwise_xor(rows, pack_rows(flips), out=rows)
            elif type(channel) is not NoiselessChannel:
                generic.append(r)
        heard = unpack_rows(received, rounds).reshape(replicas, n, rounds)
        for r in generic:
            # Unknown channel: it only understands boolean matrices, so it
            # applies itself to the unpacked replica slice as usual.
            heard[r] = channel_list[r].apply(heard[r], start_list[r])
        return heard

    @staticmethod
    def _segmented_or(
        topology: "Topology", packed: np.ndarray, replicas: int
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
        degrees = np.diff(indptr)
        populated_nodes = np.flatnonzero(degrees)
        starts = indptr[:-1]
        for lo in range(0, replicas, chunk):
            hi = min(lo + chunk, replicas)
            count = hi - lo
            if count == 1:
                stacked_indices = indices if lo == 0 else indices + lo * n
                chunk_starts = starts[populated_nodes]
                chunk_rows = populated_nodes + lo * n
            else:
                node_shift = (
                    np.arange(lo, hi, dtype=np.int64) * n
                )[:, None]
                edge_shift = (
                    np.arange(count, dtype=np.int64) * indices.size
                )[:, None]
                stacked_indices = (indices[None, :] + node_shift).ravel()
                stacked_starts = (starts[None, :] + edge_shift).ravel()
                populated = (
                    populated_nodes[None, :]
                    + (np.arange(count, dtype=np.int64) * n)[:, None]
                ).ravel()
                chunk_starts = stacked_starts.reshape(count, n)[
                    :, populated_nodes
                ].ravel()
                chunk_rows = populated + lo * n
            gathered = packed[stacked_indices]
            # reduceat over only the non-empty CSR segments: consecutive
            # populated starts delimit exactly one node's neighbour block
            # (empty segments between them contribute no indices), and
            # isolated nodes keep their zero rows.
            out[chunk_rows] = np.bitwise_or.reduceat(
                gathered, chunk_starts, axis=0
            )
        return out

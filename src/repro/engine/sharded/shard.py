"""Worker-side shard execution: local kernels and shard-local channels.

A :class:`ShardExecutor` lives inside one worker process and owns one
rank's :class:`~repro.engine.sharded.partition.RankShard` arrays.  Given
the stacked ``[local | halo]`` schedule rows for a block of columns, it
computes the rank's slice of the OR-of-neighbours with either local
kernel:

* ``"dense"`` — an integer CSR matvec over the shard (the exact
  semantics of :meth:`repro.graphs.Topology.neighbor_or` restricted to
  local rows);
* ``"bitpacked"`` — columns packed into ``uint64`` words and reduced
  with one segmented ``bitwise_or.reduceat`` over the shard CSR (the
  :class:`~repro.engine.bitpacked.BitpackedBackend` kernel restricted to
  local rows).

Both kernels produce identical booleans, so the sharded tier inherits
the engine's bit-identical-backends invariant shard by shard.

Channels are applied *shard-locally* where the noise stream allows it:
every :class:`~repro.beeping.noise.WindowedNoise` channel's flips
(Bernoulli, heterogeneous, adversarial) are a pure function of
``(seed, round, node)``, so a worker reconstructs the channel from its
spec tuple and slices its local nodes' rows out of the global flip
block — bit-identical to the single-process application, independent of
``P``.  Unknown channel types cannot be sliced safely and are applied at
the coordinator instead (see the coordinator's channel dispatch).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from typing import TYPE_CHECKING

from ...errors import SimulationError
from ..packing import pack_rows, unpack_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ...beeping.noise import WindowedNoise

__all__ = ["ShardExecutor", "csr_or_words"]


def csr_or_words(
    indptr: np.ndarray, indices: np.ndarray, packed: np.ndarray, rows: int
) -> np.ndarray:
    """Segmented OR of packed words over a CSR: row ``i`` ORs its columns.

    ``packed`` is the ``(column_space, words)`` packed matrix; the
    result has ``rows`` rows (zeros for empty CSR rows).  This is the
    bit-packed backend's segmented-``reduceat`` carrier-sense, reusable
    over any shard CSR.
    """
    words = packed.shape[1]
    out = np.zeros((rows, words), dtype=np.uint64)
    if indices.size == 0 or words == 0:
        return out
    populated = np.flatnonzero(np.diff(indptr))
    # reduceat over only the non-empty segments: consecutive populated
    # starts delimit exactly one row's column block (empty rows between
    # them contribute no indices), and empty rows keep their zeros.
    out[populated] = np.bitwise_or.reduceat(
        packed[indices], indptr[:-1][populated], axis=0
    )
    return out


class ShardExecutor:
    """Executes one rank's carrier-sense and channel work in a worker.

    Built from a :meth:`~repro.engine.sharded.partition.RankShard.
    payload` dict; holds the shard CSR (both kernel forms, built
    lazily) and a small cache of reconstructed Bernoulli channels so
    flip windows stay resident across rounds.
    """

    def __init__(self, payload: dict) -> None:
        self.rank = int(payload["rank"])
        self.shards = int(payload["shards"])
        self.num_nodes = int(payload["num_nodes"])
        self.local_nodes = np.asarray(payload["local_nodes"], dtype=np.int64)
        self.halo_nodes = np.asarray(payload["halo_nodes"], dtype=np.int64)
        self.indptr = np.asarray(payload["indptr"], dtype=np.int64)
        self.indices = np.asarray(payload["indices"], dtype=np.int64)
        self.send_rows = {
            int(peer): np.asarray(rows, dtype=np.int64)
            for peer, rows in payload["send_rows"].items()
        }
        self.recv_slots = {
            int(peer): np.asarray(slots, dtype=np.int64)
            for peer, slots in payload["recv_slots"].items()
        }
        self._matrix: "sp.csr_matrix | None" = None
        self._channels: dict[tuple, object] = {}

    @property
    def num_local(self) -> int:
        """Local row count of the shard."""
        return int(self.local_nodes.shape[0])

    @property
    def column_space(self) -> int:
        """Width of the stacked ``[local | halo]`` column space."""
        return int(self.local_nodes.shape[0] + self.halo_nodes.shape[0])

    def _shard_matrix(self) -> sp.csr_matrix:
        """The shard CSR as a scipy matrix (dense-kernel form), lazily."""
        if self._matrix is None:
            self._matrix = sp.csr_matrix(
                (
                    np.ones(self.indices.shape[0], dtype=np.int32),
                    self.indices,
                    self.indptr,
                ),
                shape=(self.num_local, self.column_space),
            )
        return self._matrix

    def neighbor_or(self, stacked: np.ndarray, kernel: str) -> np.ndarray:
        """Local rows' OR-of-neighbours over the stacked schedule rows.

        ``stacked`` is boolean ``(local + halo, columns)``; the result is
        boolean ``(local, columns)``.  Kernels are bit-identical; they
        only trade instruction mix.
        """
        if stacked.shape[0] != self.column_space:
            raise SimulationError(
                f"rank {self.rank}: stacked rows {stacked.shape[0]} != "
                f"column space {self.column_space}"
            )
        if kernel == "bitpacked":
            packed = pack_rows(stacked)
            received = csr_or_words(
                self.indptr, self.indices, packed, self.num_local
            )
            return unpack_rows(received, stacked.shape[1])
        if kernel == "dense":
            # Integer counts then > 0, exactly like Topology.neighbor_or;
            # int32 is exact (counts are bounded by the degree < 2^31).
            counts = self._shard_matrix() @ stacked.astype(np.int32)
            return counts > 0
        raise SimulationError(f"unknown shard kernel {kernel!r}")

    def apply_channel(
        self,
        received: np.ndarray,
        spec: "tuple | None",
        start_round: int,
        rounds: int,
    ) -> np.ndarray:
        """Apply one replica's channel to this rank's heard rows in place.

        ``spec`` is the coordinator's channel descriptor: ``("noiseless",)``
        leaves the bits as heard; ``("bernoulli", eps, seed)``,
        ``("adversarial", eps, seed)`` and ``("heterogeneous",
        eps_vector_bytes, seed)`` reconstruct the corresponding windowed
        channel and XOR the *local nodes' rows* of the global flip block
        — every windowed channel's flips are keyed by ``(seed, round,
        node)``, so the slice is bit-identical to a single-process
        application.  ``None`` (an unknown channel type) is a coordinator
        responsibility and passes through untouched.
        """
        if spec is None or spec[0] == "noiseless" or rounds == 0:
            return received
        channel = self._channels.get(spec)
        if channel is None:
            channel = self._build_channel(spec)
            if len(self._channels) >= 8:
                self._channels.clear()
            self._channels[spec] = channel
        flips = channel.flip_block(start_round, rounds, self.num_nodes)
        received ^= flips[self.local_nodes]
        return received

    @staticmethod
    def _build_channel(spec: tuple) -> "WindowedNoise":
        """Reconstruct a windowed channel from its coordinator spec tuple."""
        from ...beeping.noise import (
            AdversarialNoise,
            BernoulliNoise,
            HeterogeneousNoise,
        )

        if spec[0] == "bernoulli":
            return BernoulliNoise(float(spec[1]), int(spec[2]))
        if spec[0] == "adversarial":
            return AdversarialNoise(float(spec[1]), int(spec[2]))
        if spec[0] == "heterogeneous":
            vector = np.frombuffer(spec[1], dtype=np.float64)
            return HeterogeneousNoise(vector, int(spec[2]))
        raise SimulationError(f"unknown channel spec {spec!r}")

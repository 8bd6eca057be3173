"""The sharded execution tier: persistent worker pool + ShardedBackend.

:class:`ShardedBackend` satisfies the full
:class:`~repro.engine.base.SimulationBackend` protocol
(``run_schedule_batch``, ``neighbor_or``, and the inherited
``run_schedule``, a batch of one) by fanning the carrier-sense work out
over ``P`` persistent worker processes:

1. the topology is partitioned once per ``(topology, P)`` by
   :func:`~repro.engine.sharded.partition.build_shard_plan` (cached on
   the topology) and each rank's CSR shard is shipped to its worker;
2. each execution scatters the schedule rows to their owning ranks,
   workers exchange the **boundary rows** their neighbours need directly
   over rank-to-rank pipes — in fixed-size chunks, never one giant
   pickle — merge them into their halo, run the local kernel
   (dense CSR matvec or bit-packed segmented OR), apply shard-local
   channels, and stream their heard rows back;
3. the coordinator reassembles the global heard matrix in node order.

**Bit-identity across P**: all randomness stays keyed by ``(seed,
round, node)`` exactly as in the single-process engine — never by rank
or ``P`` — and boolean OR is associative, so the heard matrix equals
:class:`~repro.engine.dense.DenseBackend`'s for every ``P`` (including
``P = 1``, which simply delegates to the wrapped base backend).

Every worker runs under a :class:`~repro.memguard.MemoryGuard`; a
worker that exceeds its resident-set budget raises a clean
:class:`~repro.errors.MemoryBudgetError` that the coordinator re-raises
in the parent, instead of the kernel OOM-killing the host.  Workers are
started with the library's pinned ``spawn`` context
(:func:`~repro.engine.mp.mp_context`), so they can never inherit dirty
parent state.
"""

from __future__ import annotations

import weakref
from multiprocessing.connection import Connection, wait as _mp_wait
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ...errors import ConfigurationError, MemoryBudgetError, SimulationError
from ...memguard import MemoryGuard, peak_rss
from ..base import (
    SimulationBackend,
    normalize_batch_args,
    validate_schedule,
    validate_schedule_batch,
)
from ..mp import mp_context
from .partition import ShardPlan
from .shard import ShardExecutor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ...beeping.noise import NoiseModel
    from ...graphs import Topology

__all__ = ["ShardedBackend", "CHUNK_BYTES", "send_array", "recv_array"]

#: Fixed chunk size for every array crossing a pipe (boundary rows,
#: schedule scatter, heard gather, shard payloads).  One mebibyte keeps
#: each ``send_bytes`` bounded regardless of n, so no exchange ever
#: serialises a giant single message.
CHUNK_BYTES = 1 << 20

#: Local kernels a shard worker can run (the single-process backends,
#: restricted to shard rows).
_KERNELS = ("dense", "bitpacked")


def send_array(conn: "Connection", array: np.ndarray) -> None:
    """Send a numpy array over a connection in fixed-size chunks.

    The wire format is a small ``(dtype, shape, nbytes)`` header pickle
    followed by ``ceil(nbytes / CHUNK_BYTES)`` raw byte messages — the
    peak per-message footprint is ``CHUNK_BYTES`` no matter how large
    the array is.
    """
    array = np.ascontiguousarray(array)
    conn.send((array.dtype.str, array.shape, array.nbytes))
    if array.nbytes == 0:
        return
    view = memoryview(array).cast("B")
    for low in range(0, array.nbytes, CHUNK_BYTES):
        conn.send_bytes(view[low : low + CHUNK_BYTES])


def recv_array(conn: "Connection") -> np.ndarray:
    """Receive one :func:`send_array` transmission into a fresh array."""
    dtype_str, shape, nbytes = conn.recv()
    out = np.empty(shape, dtype=np.dtype(dtype_str))
    if nbytes:
        view = memoryview(out).cast("B")
        offset = 0
        while offset < nbytes:
            offset += conn.recv_bytes_into(view[offset:])
    return out


def _channel_spec(channel: "NoiseModel") -> "tuple | None":
    """Describe a channel for shard-local application, or ``None``.

    Exact-type checks (mirroring the bit-packed backend's dispatch):
    only the library's own channel classes have noise streams known to
    be sliceable per node.  A subclass or third-party channel returns
    ``None`` — workers then hand back raw heard bits and the coordinator
    applies the channel to the assembled global matrix, preserving
    arbitrary semantics at the cost of shard locality.
    """
    from ...beeping.noise import (
        AdversarialNoise,
        BernoulliNoise,
        HeterogeneousNoise,
        NoiselessChannel,
    )

    if type(channel) is NoiselessChannel:
        return ("noiseless",)
    if type(channel) is BernoulliNoise:
        return ("bernoulli", channel.eps, channel.seed)
    if type(channel) is AdversarialNoise:
        return ("adversarial", channel.eps, channel.seed)
    if type(channel) is HeterogeneousNoise:
        # The vector travels as plain bytes so the spec stays a picklable
        # hashable-friendly tuple of primitives.
        return (
            "heterogeneous",
            channel.eps_vector.tobytes(),
            channel.seed,
        )
    return None


def _exchange_boundary(
    executor: ShardExecutor, peers: dict, local_rows: np.ndarray
) -> np.ndarray:
    """One chunked boundary exchange: send owed rows, assemble the halo.

    Peers are visited in ascending rank order with the lower rank
    sending first — the ordered pairwise schedule that cannot deadlock —
    and each transfer is chunked by :func:`send_array`.  Rows travel
    ascending by global id on both sides, so ``recv_slots`` places them
    without per-row addressing.
    """
    columns = local_rows.shape[1]
    halo = np.zeros((executor.halo_nodes.shape[0], columns), dtype=bool)
    for peer in range(executor.shards):
        if peer == executor.rank:
            continue
        out_rows = executor.send_rows.get(peer)
        in_slots = executor.recv_slots.get(peer)
        if out_rows is None and in_slots is None:
            continue
        conn = peers[peer]
        if executor.rank < peer:
            if out_rows is not None:
                send_array(conn, local_rows[out_rows])
            if in_slots is not None:
                halo[in_slots] = recv_array(conn)
        else:
            if in_slots is not None:
                halo[in_slots] = recv_array(conn)
            if out_rows is not None:
                send_array(conn, local_rows[out_rows])
    return halo


def _worker_main(
    rank: int,
    shards: int,
    conn: "Connection",
    peers: "dict[int, Connection]",
    memory_budget: "int | None",
) -> None:
    """Entry point of one shard worker process.

    Serves coordinator ops over ``conn`` until ``shutdown``: ``load``
    installs a :class:`ShardExecutor`, ``run`` executes one column block
    (scatter → boundary exchange → local kernel → shard-local channels →
    gather), ``stats`` reports the memory-guard peak.  Any exception is
    reported as an ``("error", type, message)`` reply; the coordinator
    resets the pool on receipt, so a failed worker never leaves peers
    blocked for good.
    """
    guard = MemoryGuard(memory_budget, label=f"shard worker {rank}")
    executor: "ShardExecutor | None" = None
    token = None
    try:
        while True:
            message = conn.recv()
            op = message[0]
            if op == "shutdown":
                break
            try:
                if op == "load":
                    meta = message[1]
                    payload = {
                        "rank": rank,
                        "shards": shards,
                        "num_nodes": meta["num_nodes"],
                    }
                    for key in ("local_nodes", "halo_nodes", "indptr", "indices"):
                        payload[key] = recv_array(conn)
                    payload["send_rows"] = {
                        peer: recv_array(conn) for peer in meta["send_keys"]
                    }
                    payload["recv_slots"] = {
                        peer: recv_array(conn) for peer in meta["recv_keys"]
                    }
                    executor = ShardExecutor(payload)
                    token = message[2]
                    guard.check("after shard load")
                    conn.send(("ok", None))
                elif op == "run":
                    _, run_token, kernel, include_self, rounds, specs, starts = message
                    if executor is None or run_token != token:
                        raise SimulationError(
                            f"worker {rank} asked to run unloaded plan"
                        )
                    local_rows = recv_array(conn)
                    guard.check("after schedule scatter")
                    halo = _exchange_boundary(executor, peers, local_rows)
                    stacked = np.concatenate([local_rows, halo], axis=0)
                    del halo
                    guard.check("after halo merge")
                    received = executor.neighbor_or(stacked, kernel)
                    del stacked
                    if include_self:
                        received |= local_rows
                    guard.check("after carrier sense")
                    for index, (spec, start) in enumerate(zip(specs, starts)):
                        block = received[:, index * rounds : (index + 1) * rounds]
                        executor.apply_channel(block, spec, start, rounds)
                    guard.check("after channel")
                    conn.send(("ok", None))
                    send_array(conn, received)
                elif op == "stats":
                    conn.send(
                        (
                            "ok",
                            {
                                "rank": rank,
                                "peak_rss": max(guard.observed_peak, peak_rss()),
                                "budget_bytes": memory_budget,
                                "local_nodes": (
                                    0 if executor is None else executor.num_local
                                ),
                                "halo_nodes": (
                                    0
                                    if executor is None
                                    else int(executor.halo_nodes.shape[0])
                                ),
                            },
                        )
                    )
                else:  # pragma: no cover - protocol misuse
                    raise SimulationError(f"unknown worker op {op!r}")
            except Exception as error:  # noqa: BLE001 - reported upstream
                conn.send(("error", type(error).__name__, str(error)))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


def _rebuild_error(name: str, message: str) -> Exception:
    """Map a worker's ``("error", ...)`` reply back to a typed exception."""
    if name == "MemoryBudgetError":
        return MemoryBudgetError(message)
    if name == "ConfigurationError":
        return ConfigurationError(message)
    return SimulationError(f"shard worker failed: {name}: {message}")


class _ShardWorkerPool:
    """``P`` persistent spawn-context workers wired coordinator + pairwise.

    Owns the process handles, the coordinator↔worker duplex pipes, and
    one duplex pipe per unordered rank pair for boundary exchange.  A
    pool loads at most one :class:`ShardPlan` at a time; loading a new
    plan re-ships the shards (executions over one topology reuse the
    loaded state).
    """

    def __init__(self, shards: int, memory_budget: "int | None") -> None:
        context = mp_context()
        pair_ends: dict[int, dict[int, object]] = {
            rank: {} for rank in range(shards)
        }
        parent_pair_ends = []
        for low in range(shards):
            for high in range(low + 1, shards):
                end_low, end_high = context.Pipe(duplex=True)
                pair_ends[low][high] = end_low
                pair_ends[high][low] = end_high
                parent_pair_ends.extend((end_low, end_high))
        self._conns = []
        self._procs = []
        child_ends = []
        for rank in range(shards):
            parent_end, child_end = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(rank, shards, child_end, pair_ends[rank], memory_budget),
                daemon=True,
                name=f"repro-shard-{rank}",
            )
            process.start()
            self._conns.append(parent_end)
            self._procs.append(process)
            child_ends.append(child_end)
        # The parent's copies of every worker-side pipe end must close so
        # worker EOFs propagate instead of hanging on a silent parent fd.
        for end in child_ends + parent_pair_ends:
            end.close()
        self.shards = shards
        self.loaded_plan: "ShardPlan | None" = None
        self._token = 0
        self._alive = True

    @property
    def alive(self) -> bool:
        """Whether the pool can still serve ops (False after teardown)."""
        return self._alive

    def _collect(self, with_array: bool) -> "tuple[list, list]":
        """Gather one reply per rank, draining whichever rank is ready.

        Polling all coordinator pipes (rather than receiving in rank
        order) means a worker's ``error`` reply is seen even while other
        workers are still blocked mid-exchange — the pool then tears
        everything down so nothing waits forever.
        """
        by_conn = {conn: rank for rank, conn in enumerate(self._conns)}
        pending = set(range(self.shards))
        metas: list = [None] * self.shards
        arrays: list = [None] * self.shards
        while pending:
            ready = _mp_wait([self._conns[rank] for rank in pending])
            for conn in ready:
                rank = by_conn[conn]
                try:
                    reply = conn.recv()
                    if reply[0] == "error":
                        raise _rebuild_error(reply[1], reply[2])
                    metas[rank] = reply[1]
                    if with_array:
                        arrays[rank] = recv_array(conn)
                except (EOFError, OSError):
                    self.terminate()
                    raise SimulationError(
                        f"shard worker {rank} died unexpectedly"
                    ) from None
                except Exception:
                    self.terminate()
                    raise
                pending.discard(rank)
        return metas, arrays

    def load(self, plan: ShardPlan) -> None:
        """Ship every rank its shard arrays (chunked) and await the acks."""
        self._token += 1
        for rank, shard in enumerate(plan.ranks):
            conn = self._conns[rank]
            meta = {
                "num_nodes": shard.num_nodes,
                "send_keys": sorted(shard.send_rows),
                "recv_keys": sorted(shard.recv_slots),
            }
            conn.send(("load", meta, self._token))
            for key in ("local_nodes", "halo_nodes", "indptr", "indices"):
                send_array(conn, getattr(shard, key))
            for peer in meta["send_keys"]:
                send_array(conn, shard.send_rows[peer])
            for peer in meta["recv_keys"]:
                send_array(conn, shard.recv_slots[peer])
        self._collect(with_array=False)
        self.loaded_plan = plan

    def run(
        self,
        plan: ShardPlan,
        columns: np.ndarray,
        kernel: str,
        include_self: bool,
        rounds: int,
        specs: "Sequence[tuple | None]",
        starts: "Sequence[int]",
    ) -> np.ndarray:
        """Execute one ``(n, C)`` column block across the pool.

        ``columns`` stacks ``len(specs)`` replica blocks of ``rounds``
        columns each; workers apply spec ``i`` to their rows of block
        ``i`` (``None`` specs pass through raw for coordinator-side
        application).  Returns the reassembled ``(n, C)`` heard matrix.
        """
        if plan is not self.loaded_plan:
            self.load(plan)
        for rank, shard in enumerate(plan.ranks):
            conn = self._conns[rank]
            conn.send(
                (
                    "run",
                    self._token,
                    kernel,
                    include_self,
                    rounds,
                    tuple(specs),
                    tuple(int(start) for start in starts),
                )
            )
            send_array(conn, columns[shard.local_nodes])
        _, arrays = self._collect(with_array=True)
        out = np.zeros_like(columns)
        for rank, shard in enumerate(plan.ranks):
            if shard.num_local:
                out[shard.local_nodes] = arrays[rank]
        return out

    def stats(self) -> list[dict]:
        """Per-worker memory stats (rank, peak RSS, budget, shard sizes)."""
        for conn in self._conns:
            conn.send(("stats",))
        metas, _ = self._collect(with_array=False)
        return metas

    def shutdown(self) -> None:
        """Ask workers to exit, then reap them."""
        if not self._alive:
            return
        self._alive = False
        for conn in self._conns:
            try:
                conn.send(("shutdown",))
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        for process in self._procs:
            process.join(timeout=5)
        self.terminate()

    def terminate(self) -> None:
        """Hard-stop every worker and close the pipes (idempotent)."""
        self._alive = False
        self.loaded_plan = None
        for process in self._procs:
            if process.is_alive():
                process.terminate()
        for process in self._procs:
            process.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


def _shutdown_pool(pool: "_ShardWorkerPool | None") -> None:
    """Finalizer hook: best-effort pool shutdown."""
    if pool is not None:
        try:
            pool.shutdown()
        except Exception:  # pragma: no cover - interpreter teardown
            pass


class ShardedBackend(SimulationBackend):
    """Hash-sharded multi-process execution of the beeping primitives.

    Parameters
    ----------
    shards:
        Worker-process count ``P``.  ``1`` delegates every call to the
        wrapped base backend in-process (no workers are spawned).
    base:
        The local kernel: ``"dense"``, ``"bitpacked"``, ``"auto"``
        (default — the same size heuristic as the registry), or an
        instance of either backend.  Never the process default, so a
        sharded backend installed *as* the process default cannot
        recurse into itself.
    memory_budget_bytes:
        Optional per-worker resident-set ceiling enforced by
        :class:`~repro.memguard.MemoryGuard`; exceeding it raises
        :class:`~repro.errors.MemoryBudgetError` at the coordinator.

    The heard matrices are bit-identical to the single-process engine
    for every ``P`` and both kernels (property-tested in
    ``tests/engine/test_sharded_backend.py``).
    """

    name = "sharded"

    def __init__(
        self,
        shards: int,
        base: "str | SimulationBackend | None" = None,
        memory_budget_bytes: "int | None" = None,
    ) -> None:
        if not isinstance(shards, (int, np.integer)) or isinstance(shards, bool):
            raise ConfigurationError(f"shards must be an integer, got {shards!r}")
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if isinstance(base, SimulationBackend):
            if base.name not in _KERNELS:
                raise ConfigurationError(
                    f"sharded base must be one of {_KERNELS} (or 'auto'), "
                    f"got {base.name!r}"
                )
        elif base is not None and base != "auto":
            if base not in _KERNELS:
                raise ConfigurationError(
                    f"sharded base must be one of {_KERNELS} (or 'auto'), "
                    f"got {base!r}"
                )
        self._shards = int(shards)
        self._base = base
        self._budget = memory_budget_bytes
        self._pool: "_ShardWorkerPool | None" = None
        self._finalizer: "weakref.finalize | None" = None

    @property
    def shards(self) -> int:
        """The configured worker count ``P``."""
        return self._shards

    @property
    def label(self) -> str:
        """Human-readable identity, e.g. ``"auto-shards4"``."""
        if isinstance(self._base, SimulationBackend):
            base = self._base.name
        else:
            base = self._base or "auto"
        return f"{base}-shards{self._shards}"

    def _kernel(
        self, topology: "Topology", rounds: "int | None"
    ) -> SimulationBackend:
        """Resolve the local kernel backend (never the process default)."""
        from .. import resolve_backend

        spec = self._base if self._base is not None else "auto"
        return resolve_backend(spec, topology=topology, rounds=rounds)

    def _ensure_pool(self) -> _ShardWorkerPool:
        """Spawn the persistent worker pool on first sharded use.

        A pool torn down by a worker error (or :meth:`close`) is
        replaced by a fresh one, so one failed run never bricks the
        backend instance.
        """
        if self._pool is not None and not self._pool.alive:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self._pool = None
        if self._pool is None:
            self._pool = _ShardWorkerPool(self._shards, self._budget)
            self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        return self._pool

    def _execute(
        self,
        topology: "Topology",
        columns: np.ndarray,
        kernel: str,
        include_self: bool,
        rounds: int,
        specs: "Sequence[tuple | None]",
        starts: "Sequence[int]",
    ) -> np.ndarray:
        """Run one stacked column block through the pool."""
        plan = topology.shard_plan(self._shards)
        return self._ensure_pool().run(
            plan, columns, kernel, include_self, rounds, specs, starts
        )

    def run_schedule_batch(
        self,
        topology: "Topology",
        schedules: np.ndarray,
        channels: "NoiseModel | Sequence[NoiseModel | None] | None" = None,
        start_rounds: "int | Sequence[int] | None" = None,
    ) -> np.ndarray:
        """Replica batch: one sharded pass over replica-stacked columns."""
        schedules = validate_schedule_batch(topology, schedules)
        replicas, n, rounds = schedules.shape
        base = self._kernel(topology, rounds)
        if (
            self._shards == 1
            or replicas == 0
            or n == 0
            or rounds == 0
        ):
            return base.run_schedule_batch(
                topology, schedules, channels, start_rounds
            )
        channel_list, start_list = normalize_batch_args(
            replicas, channels, start_rounds
        )
        specs = [_channel_spec(channel) for channel in channel_list]
        stacked = np.ascontiguousarray(
            schedules.transpose(1, 0, 2).reshape(n, replicas * rounds)
        )
        heard = self._execute(
            topology, stacked, base.name, True, rounds, specs, start_list
        )
        result = np.ascontiguousarray(
            heard.reshape(n, replicas, rounds).transpose(1, 0, 2)
        )
        for index, spec in enumerate(specs):
            if spec is None:
                result[index] = channel_list[index].apply(
                    result[index], start_list[index]
                )
        return result

    def neighbor_or(self, topology: "Topology", beeps: np.ndarray) -> np.ndarray:
        """Sharded per-round carrier-sense (vector or matrix form)."""
        beeps = np.asarray(beeps, dtype=bool)
        base = self._kernel(topology, None if beeps.ndim == 1 else beeps.shape[-1])
        if self._shards == 1 or topology.num_nodes == 0:
            return base.neighbor_or(topology, beeps)
        vector = beeps.ndim == 1
        matrix = beeps[:, np.newaxis] if vector else beeps
        matrix = validate_schedule(topology, matrix)
        if matrix.shape[1] == 0:
            return base.neighbor_or(topology, beeps)
        heard = self._execute(
            topology,
            matrix,
            self._kernel(topology, matrix.shape[1]).name,
            False,
            matrix.shape[1],
            [("noiseless",)],
            [0],
        )
        return heard[:, 0] if vector else heard

    def worker_stats(self) -> list[dict]:
        """Per-worker memory/shard stats (empty if no pool has spawned)."""
        if self._pool is None:
            return []
        return self._pool.stats()

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a new run respawns)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedBackend(shards={self._shards}, base={self._base!r})"

"""Array-native Broadcast CONGEST engine: the one every algorithm runs on.

The per-node engine (:class:`~repro.congest.network.
BroadcastCongestNetwork`), kept as the executable specification the
tests compare against, drives one Python object per node; this module
drives one :class:`VectorizedBroadcastAlgorithm` object per *network*,
whose state lives in numpy arrays.  Each round :func:`drive`

1. asks the algorithm for the whole network's broadcasts at once —
   a message plane plus an *active* mask (``active[v]`` iff node ``v``
   broadcasts, the reference's ``broadcast() is not None``);
2. enforces the ``γ log n`` message budget with one vector comparison;
3. hands the plane to a *delivery*, which returns an **unattributed
   ragged inbox** — exactly the reference delivery convention, so
   corrupted decodes from the beeping substrate are representable too.
   :meth:`VectorContext.gather` is the perfect channel (a CSR neighbour
   gather over the topology's adjacency arrays, the same CSR the
   beeping kernels execute on); the beeping simulators pass a delivery
   that runs one simulated round;
4. hands the inbox to ``receive_step`` and updates the live-node count.

Message planes: algorithms whose budget fits a machine word return an
``int64[n]`` vector; wider budgets (e.g. Algorithm 3's ``[n⁹]`` samples)
return ``(n, W)`` uint64 word planes, word 0 least significant.
:class:`WordCodec` packs/unpacks structured fields on either plane with
the exact little-endian layout of :class:`~repro.congest.model.
MessageCodec`, so vectorized and per-node algorithms interoperate on the
wire; :func:`plane_ints` and :func:`inbox_from_lists` convert between
word planes and per-node Python ints.

:class:`ObjectAlgorithmsAdapter` wraps a sequence of per-node
:class:`~repro.congest.algorithm.BroadcastCongestAlgorithm` objects as a
(non-columnar) vectorized algorithm, so third-party object algorithms
run unchanged under this driver — with outputs, rounds and message
counts identical to the reference engine.  :func:`as_vectorized` applies
it where needed, so both beeping simulators accept either form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, MessageSizeError
from ..graphs import Topology
from ..rng import derive_rng
from ..rng_philox import NodeStreams, words_for_bits
from .algorithm import BroadcastCongestAlgorithm
from .context import NodeContext
from .model import check_message
from .network import RunResult, _EngineBase

__all__ = [
    "VectorContext",
    "VectorizedBroadcastAlgorithm",
    "VectorizedBroadcastNetwork",
    "ObjectAlgorithmsAdapter",
    "WordCodec",
    "drive",
    "as_vectorized",
    "plane_words",
    "plane_ints",
    "inbox_from_lists",
    "plane_width",
    "check_plane",
    "words_less_equal_mask",
    "inbox_receivers",
]

_WORD_MASK = (1 << 64) - 1


def plane_width(message_bits: int) -> int:
    """Words per message on the wire plane for a given bit budget."""
    return words_for_bits(message_bits)


def plane_words(messages: np.ndarray, message_bits: int) -> np.ndarray:
    """Normalise a message plane to its ``(n, W)`` uint64 word form.

    Accepts the 1-D ``int64`` plane (budgets up to 63 bits) or an
    already-worded plane; raises :class:`ConfigurationError` on shape or
    dtype mismatches rather than reinterpreting bits silently.
    """
    width = plane_width(message_bits)
    if messages.ndim == 1:
        if message_bits > 63:
            raise ConfigurationError(
                f"a 1-D int64 plane cannot carry {message_bits}-bit "
                "messages; return (n, W) uint64 words"
            )
        return messages.astype(np.uint64)[:, None]
    if messages.ndim != 2 or messages.shape[1] != width:
        raise ConfigurationError(
            f"message plane shape {messages.shape} does not match "
            f"{message_bits}-bit budget ({width} words)"
        )
    return np.ascontiguousarray(messages, dtype=np.uint64)


def plane_ints(words: np.ndarray, active: np.ndarray) -> list[int | None]:
    """One Python int per row of a ``(k, W)`` word plane, ``None`` where
    ``active`` is False — the per-node message list of the reference."""
    rows = words[active]
    values = rows[:, 0].tolist()
    for word in range(1, rows.shape[1]):
        shift = 64 * word
        values = [
            value | (high << shift)
            for value, high in zip(values, rows[:, word].tolist())
        ]
    out: list[int | None] = [None] * words.shape[0]
    for index, value in zip(np.flatnonzero(active).tolist(), values):
        out[index] = value
    return out


def inbox_from_lists(
    lists: Sequence[Sequence[int]], message_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node message lists as the ragged ``(indptr, inbox)`` word form.

    Node ``v``'s messages become rows ``indptr[v]:indptr[v+1]`` of the
    ``(k, W)`` uint64 inbox, in list order; bits past ``64 W`` are
    dropped.
    """
    width = plane_width(message_bits)
    indptr = np.concatenate(
        ([0], np.cumsum([len(values) for values in lists], dtype=np.int64))
    )
    flat = [value for values in lists for value in values]
    inbox = np.empty((len(flat), width), dtype=np.uint64)
    for word in range(width):
        inbox[:, word] = np.fromiter(
            ((value >> (64 * word)) & _WORD_MASK for value in flat),
            dtype=np.uint64,
            count=len(flat),
        )
    return indptr, inbox


def words_less_equal_mask(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise multi-word comparison: ``(a < b, a == b)`` boolean masks.

    Both arrays are ``(k, W)`` uint64, word 0 least significant — the
    vectorized form of comparing two arbitrary-width protocol values.
    """
    less = np.zeros(a.shape[0], dtype=bool)
    greater = np.zeros(a.shape[0], dtype=bool)
    for word in range(a.shape[1] - 1, -1, -1):
        undecided = ~(less | greater)
        less |= undecided & (a[:, word] < b[:, word])
        greater |= undecided & (a[:, word] > b[:, word])
    return less, ~(less | greater)


def inbox_receivers(indptr: np.ndarray) -> np.ndarray:
    """Receiver node index per inbox entry, from the ragged inbox indptr."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def check_plane(words: np.ndarray, active: np.ndarray, message_bits: int) -> None:
    """Vectorized ``check_message``: every active row must fit the budget."""
    rows = words[active]
    if rows.size == 0:
        return
    top = message_bits - 64 * (words.shape[1] - 1)
    if top < 64 and np.any(rows[:, -1] >> np.uint64(top)):
        raise MessageSizeError(
            f"a broadcast message needs more than the "
            f"{message_bits}-bit budget"
        )


class WordCodec:
    """Vectorized fixed-width field packing over uint64 word planes.

    The field layout is identical to :class:`~repro.congest.model.
    MessageCodec` (little-endian: first field in the lowest bits), but
    packing and unpacking operate on whole numpy columns; fields wider
    than 64 bits are exchanged as ``(k, Wf)`` word arrays.
    """

    def __init__(self, fields: Sequence[tuple[str, int]]) -> None:
        if not fields:
            raise ConfigurationError("codec needs at least one field")
        offsets = {}
        cursor = 0
        for name, width in fields:
            if width < 1:
                raise ConfigurationError(
                    f"field {name!r} must be at least 1 bit wide, got {width}"
                )
            if name in offsets:
                raise ConfigurationError(f"duplicate field name {name!r}")
            offsets[name] = (cursor, int(width))
            cursor += int(width)
        self._layout = offsets
        self._width = cursor

    @property
    def width(self) -> int:
        """Total bits consumed by a packed message."""
        return self._width

    @property
    def words(self) -> int:
        """Words per packed message on the wire plane."""
        return plane_width(self._width)

    def _field_words(self, width: int) -> int:
        return (width + 63) // 64

    def unpack(self, plane: np.ndarray, name: str) -> np.ndarray:
        """Extract one field column from a ``(k, W)`` word plane.

        Returns ``(k,)`` uint64 for fields up to 64 bits, else
        ``(k, Wf)`` uint64 words (word 0 least significant).
        """
        offset, width = self._layout[name]
        field_words = self._field_words(width)
        out = np.zeros((plane.shape[0], field_words), dtype=np.uint64)
        for word in range(field_words):
            bit = offset + 64 * word
            source, shift = divmod(bit, 64)
            out[:, word] = plane[:, source] >> np.uint64(shift)
            if shift and source + 1 < plane.shape[1]:
                out[:, word] |= plane[:, source + 1] << np.uint64(64 - shift)
            remaining = width - 64 * word
            if remaining < 64:
                out[:, word] &= np.uint64((1 << remaining) - 1)
        if field_words == 1:
            return out[:, 0]
        return out

    def pack(self, count: int, **fields: "np.ndarray | int") -> np.ndarray:
        """Pack field columns into a ``(count, W)`` uint64 word plane.

        Scalars broadcast; wide fields are passed as ``(count, Wf)``
        word arrays.  Every declared field must be provided, and —
        matching :meth:`MessageCodec.pack` — a value that does not fit
        its field raises :class:`MessageSizeError` rather than bleeding
        into the neighbouring field.
        """
        missing = set(self._layout) - set(fields)
        if missing:
            raise ConfigurationError(f"missing codec fields {sorted(missing)}")
        unknown = set(fields) - set(self._layout)
        if unknown:
            raise ConfigurationError(f"unknown codec fields {sorted(unknown)}")
        plane = np.zeros((count, self.words), dtype=np.uint64)
        for name, value in fields.items():
            if isinstance(value, int):
                if value == 0:
                    continue  # OR-ing zeros is a no-op
                value = np.full(count, value, dtype=np.uint64)
            offset, width = self._layout[name]
            field_words = self._field_words(width)
            value = np.asarray(value, dtype=np.uint64)
            if value.ndim == 0:
                value = np.full(count, value, dtype=np.uint64)
            if value.ndim == 1:
                value = value[:, None]
            top_bits = width - 64 * (field_words - 1)
            overflow = bool(value[:, field_words:].any())
            if not overflow and top_bits < 64 and value.shape[1] >= field_words:
                # A value narrower than the field cannot reach the top
                # word, so only full-width values need the top-bit check.
                overflow = bool(
                    np.any(value[:, field_words - 1] >> np.uint64(top_bits))
                )
            if overflow:
                raise MessageSizeError(
                    f"field {name!r} has values that do not fit in "
                    f"{width} bits"
                )
            for word in range(min(field_words, value.shape[1])):
                bit = offset + 64 * word
                target, shift = divmod(bit, 64)
                plane[:, target] |= value[:, word] << np.uint64(shift)
                if shift and target + 1 < plane.shape[1]:
                    plane[:, target + 1] |= value[:, word] >> np.uint64(64 - shift)
        return plane


@dataclass
class VectorContext:
    """Network-level context handed to a vectorized algorithm's ``setup``.

    The columnar counterpart of :class:`~repro.congest.context.
    NodeContext`: one object describing every node at once, plus the CSR
    adjacency arrays (shared with the :mod:`repro.engine` kernels) that
    delivery gathers run over.

    Attributes
    ----------
    topology:
        The network topology.
    ids:
        Node IDs by position, as an ``int64`` vector.
    num_nodes, max_degree, message_bits, seed:
        As in the per-node context (identical for every node).
    degrees:
        Per-node degree vector.
    indptr, edge_src, edge_dst:
        CSR adjacency: directed edge ``e`` delivers from node
        ``edge_src[e]`` to node ``edge_dst[e]``; node ``v``'s incoming
        slots are ``indptr[v]:indptr[v+1]``, sorted by sender index.
    """

    topology: Topology
    ids: np.ndarray
    num_nodes: int
    max_degree: int
    degrees: np.ndarray
    message_bits: int
    seed: int
    indptr: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    edge_src: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    edge_dst: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        """Derive the CSR arrays and the sorted-ID lookup tables."""
        adjacency = self.topology.adjacency
        if not adjacency.has_sorted_indices:
            # The slot binary search and the reference's ascending-sender
            # inbox order both assume sorted rows; scipy does not promise
            # them for every construction path, so pin the invariant.
            adjacency.sort_indices()
        self.indptr = adjacency.indptr.astype(np.int64)
        self.edge_src = adjacency.indices.astype(np.int64)
        self.edge_dst = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
        )
        order = np.argsort(self.ids, kind="stable")
        self._ids_sorted = self.ids[order]
        self._ids_order = order
        self._edge_key = self.edge_dst * np.int64(self.num_nodes) + self.edge_src

    def gather(
        self, round_index: int, words: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The perfect-channel delivery: every active row reaches each
        neighbour, by CSR gather.

        Node ``v``'s inbox holds its active neighbours' rows in ascending
        sender-index order.  A perfect channel is the same every round,
        so ``round_index`` is unused.
        """
        edge_live = active[self.edge_src]
        inbox = words[self.edge_src[edge_live]]
        counts = np.bincount(self.edge_dst[edge_live], minlength=self.num_nodes)
        indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        return indptr, inbox

    def node_streams(self) -> NodeStreams:
        """Batched per-node draw streams matching the reference engine.

        Stream ``v`` is bit-identical to the ``derive_rng(seed,
        "node-local", v)`` generator the reference engine hands node
        ``v`` (see :mod:`repro.rng_philox`).
        """
        return NodeStreams(self.seed, self.num_nodes, "node-local")

    def node_rng(self, index: int) -> np.random.Generator:
        """The reference per-node generator (for non-columnar fallbacks)."""
        return derive_rng(self.seed, "node-local", index)

    def index_of_ids(self, values: np.ndarray) -> np.ndarray:
        """Map an array of claimed node IDs to node indices (``-1`` unknown).

        Unknown IDs happen on the beeping substrate, where a failed
        decode can deliver garbage fields; they must behave exactly like
        the reference's no-op ``set.discard`` of a nonexistent ID.
        """
        values = np.asarray(values, dtype=np.int64)
        position = np.searchsorted(self._ids_sorted, values)
        position = np.clip(position, 0, self.num_nodes - 1)
        hit = self._ids_sorted[position] == values
        return np.where(hit, self._ids_order[position], np.int64(-1))

    def slot_of(self, dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        """CSR slot of directed edge ``src -> dst`` (``-1`` if absent).

        Vectorized over query pairs via binary search on the globally
        sorted ``(dst, src)`` edge keys; out-of-range indices (e.g. the
        ``-1`` of an unknown ID) miss cleanly.
        """
        n = np.int64(self.num_nodes)
        key = self._edge_key
        query = np.asarray(dst, dtype=np.int64) * n + np.asarray(
            src, dtype=np.int64
        )
        position = np.searchsorted(key, query)
        position = np.clip(position, 0, key.size - 1)
        valid = (
            (np.asarray(src, dtype=np.int64) >= 0)
            & (np.asarray(dst, dtype=np.int64) >= 0)
            & (key[position] == query)
        )
        return np.where(valid, position, np.int64(-1))


class VectorizedBroadcastAlgorithm(ABC):
    """A whole-network Broadcast CONGEST algorithm with columnar state.

    One instance describes all ``n`` nodes; per-node state lives in
    numpy arrays.  The driver calls :meth:`setup` once, then alternates
    :meth:`broadcast_step` / :meth:`receive_step` each round until every
    node's :meth:`finished_mask` entry is set (or the budget runs out).
    Implementations must preserve the reference semantics exactly —
    which nodes broadcast, what they send, and how state evolves — so
    that per-seed runs are bit-identical to the per-node object engine.
    """

    net: VectorContext

    def setup(self, net: VectorContext) -> None:
        """Install the network context (called once before round 0)."""
        self.net = net

    @abstractmethod
    def broadcast_step(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """This round's broadcasts: ``(messages, active)``.

        ``messages`` is the message plane — ``int64[n]`` for budgets up
        to 63 bits, else ``(n, W)`` uint64 words — and ``active[v]`` is
        True iff node ``v`` broadcasts (rows of inactive nodes are
        ignored).  Active nodes must be unfinished.
        """

    @abstractmethod
    def receive_step(
        self, round_index: int, inbox_indptr: np.ndarray, inbox: np.ndarray
    ) -> None:
        """Consume this round's unattributed ragged inbox.

        Node ``v``'s messages are ``inbox[inbox_indptr[v]:
        inbox_indptr[v+1]]``, as ``(k, W)`` uint64 word rows in
        ascending sender-index order — the vector form of the
        reference's per-node message lists.
        """

    @abstractmethod
    def finished_mask(self) -> np.ndarray:
        """Boolean per-node termination vector (the ``finished`` column)."""

    def outputs(self) -> list[object]:
        """Per-node outputs, indexed by node position."""
        return [None] * self.net.num_nodes


class VectorizedBroadcastNetwork(_EngineBase):
    """Synchronous Broadcast CONGEST engine over columnar algorithms.

    Construction-time validation (ids, budget) is shared with the
    reference engine via ``_EngineBase``; :meth:`run` is :func:`drive`
    over the perfect channel, which replaces the per-node scans with
    vector ops and produces the same
    :class:`~repro.congest.network.RunResult` contract.  The beeping
    simulators build one too, for its checks and its
    :class:`VectorContext`.
    """

    def run(
        self, algorithm: VectorizedBroadcastAlgorithm, max_rounds: int
    ) -> RunResult:
        """Drive the columnar algorithm for up to ``max_rounds`` rounds."""
        net = self.vector_context()
        return drive(net, algorithm, max_rounds, net.gather)

    def vector_context(self) -> VectorContext:
        """Build the :class:`VectorContext` this network hands to setup."""
        return VectorContext(
            topology=self._topology,
            ids=np.asarray(self._ids, dtype=np.int64),
            num_nodes=self._topology.num_nodes,
            max_degree=self._topology.max_degree,
            degrees=self._topology.degrees,
            message_bits=self._message_bits,
            seed=self._seed,
        )


def drive(
    net: VectorContext,
    algorithm: VectorizedBroadcastAlgorithm,
    max_rounds: int,
    deliver: Callable[
        [int, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
    ],
) -> RunResult:
    """The Broadcast CONGEST round loop, for up to ``max_rounds`` rounds.

    Each round collects the algorithm's broadcasts, enforces the
    ``γ log n`` budget, calls ``deliver(round_index, words, active)``
    with the ``(n, W)`` uint64 word plane and the active mask, and
    hands the ragged ``(indptr, inbox)`` it returns to ``receive_step``.
    The run stops once every node has finished.  ``net.gather`` is the
    perfect channel; the beeping simulators pass a delivery that runs
    one simulated round.
    """
    algorithm.setup(net)
    rounds_used = 0
    messages_sent = 0
    live = int(net.num_nodes - np.count_nonzero(algorithm.finished_mask()))
    for round_index in range(max_rounds):
        if live == 0:
            break
        messages, active = algorithm.broadcast_step(round_index)
        active = np.asarray(active, dtype=bool)
        words = plane_words(np.asarray(messages), net.message_bits)
        check_plane(words, active, net.message_bits)
        messages_sent += int(np.count_nonzero(active))
        indptr, inbox = deliver(round_index, words, active)
        algorithm.receive_step(round_index, indptr, inbox)
        rounds_used += 1
        live = int(net.num_nodes - np.count_nonzero(algorithm.finished_mask()))
    return RunResult(
        outputs=algorithm.outputs(),
        rounds_used=rounds_used,
        messages_sent=messages_sent,
        finished=live == 0,
    )


def as_vectorized(
    algorithms: "Sequence[BroadcastCongestAlgorithm] | VectorizedBroadcastAlgorithm",
) -> VectorizedBroadcastAlgorithm:
    """The algorithm :func:`drive` runs for a simulator's argument.

    A columnar :class:`VectorizedBroadcastAlgorithm` is returned as-is;
    a sequence of per-node objects is wrapped in an
    :class:`ObjectAlgorithmsAdapter`.
    """
    if isinstance(algorithms, VectorizedBroadcastAlgorithm):
        return algorithms
    return ObjectAlgorithmsAdapter(algorithms)


class ObjectAlgorithmsAdapter(VectorizedBroadcastAlgorithm):
    """Runs per-node object algorithms under the vectorized driver.

    The adapter is the compatibility seam: any third-party
    :class:`~repro.congest.algorithm.BroadcastCongestAlgorithm` sequence
    executes unchanged under :class:`VectorizedBroadcastNetwork`, with
    outputs, rounds and message counts identical to the reference
    engine (each node still gets its own :class:`NodeContext` and
    private ``derive_rng`` stream).
    """

    def __init__(self, algorithms: Sequence[BroadcastCongestAlgorithm]) -> None:
        self._algorithms = list(algorithms)

    def setup(self, net: VectorContext) -> None:
        """Install per-node contexts on every wrapped algorithm."""
        super().setup(net)
        if len(self._algorithms) != net.num_nodes:
            raise ConfigurationError(
                f"got {len(self._algorithms)} algorithms for "
                f"{net.num_nodes} nodes"
            )
        for index, algorithm in enumerate(self._algorithms):
            algorithm.setup(
                NodeContext(
                    index=index,
                    node_id=int(net.ids[index]),
                    num_nodes=net.num_nodes,
                    max_degree=net.max_degree,
                    degree=int(net.degrees[index]),
                    message_bits=net.message_bits,
                    rng=net.node_rng(index),
                    neighbor_ids=None,
                )
            )

    def broadcast_step(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Collect per-node broadcasts into a message plane + active mask."""
        n = self.net.num_nodes
        width = plane_width(self.net.message_bits)
        words = np.zeros((n, width), dtype=np.uint64)
        active = np.zeros(n, dtype=bool)
        for index, algorithm in enumerate(self._algorithms):
            if algorithm.finished:
                continue
            message = algorithm.broadcast(round_index)
            if message is None:
                continue
            check_message(message, self.net.message_bits)
            active[index] = True
            for word in range(width):
                words[index, word] = (message >> (64 * word)) & 0xFFFFFFFFFFFFFFFF
        return words, active

    def receive_step(
        self, round_index: int, inbox_indptr: np.ndarray, inbox: np.ndarray
    ) -> None:
        """Slice the ragged inbox back into per-node message lists."""
        values = plane_ints(inbox, np.ones(inbox.shape[0], dtype=bool))
        for index, algorithm in enumerate(self._algorithms):
            if algorithm.finished:
                continue
            algorithm.receive(
                round_index,
                values[int(inbox_indptr[index]) : int(inbox_indptr[index + 1])],
            )

    def finished_mask(self) -> np.ndarray:
        """Per-node ``finished`` flags gathered from the wrapped objects."""
        return np.fromiter(
            (algorithm.finished for algorithm in self._algorithms),
            dtype=bool,
            count=len(self._algorithms),
        )

    def outputs(self) -> list[object]:
        """Per-node outputs gathered from the wrapped objects."""
        return [algorithm.output() for algorithm in self._algorithms]

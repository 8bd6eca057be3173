"""Batched per-node Philox streams for the array-native CONGEST engine.

The reference message-passing engines hand every node a private
:func:`repro.rng.derive_rng` generator and algorithms draw from it with
:func:`repro.rng.random_bits`.  Constructing ``n`` numpy ``Generator``
objects and drawing from them one by one is pure-Python work that
dominates a vectorized round loop, so :class:`NodeStreams` re-implements
exactly that stream — the Philox-4x64-10 keyed construction of
``derive_rng`` plus the byte-consumption discipline of
``Generator.bytes`` — as batched numpy kernels over all nodes at once.

The contract is **bit-identity**: for every node ``v`` and every draw
width, the values produced by :meth:`NodeStreams.draw` equal the values
the per-node engine obtains from
``random_bits(derive_rng(seed, *context, v), bits)``, draw by draw.
That is what lets the columnar algorithm implementations in
:mod:`repro.algorithms` promise per-seed outputs identical to the
per-node object engine (see ``tests/test_rng_philox.py``).

Two numpy facts the emulation relies on (pinned by tests):

* ``Generator.bytes(length)`` consumes ``ceil(length / 4)`` 32-bit words
  from the bit generator and truncates the byte string to ``length`` —
  so a 11-byte draw burns 12 bytes of stream;
* Philox yields those words low-half-first from a buffered 4x64-bit
  block whose counter is **pre-incremented** (the first block is
  generated at counter 1).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .lru import LRUDict

__all__ = ["NodeStreams", "words_for_bits"]

#: Memoised Philox key columns, keyed by ``(seed, context, count)``.  The
#: keys are a pure function of that tuple (SHA-256 digests), so caching
#: cannot affect results; it amortises the only per-node Python loop left
#: in array-native engine setup across repeated runs of one experiment.
_KEY_CACHE: LRUDict = LRUDict(limit=8)

_MASK32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def words_for_bits(bits: int) -> int:
    """How many 64-bit words a ``bits``-wide value spans (min 1)."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return (bits + 63) // 64


def _mulhilo64(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """128-bit product of uint64 arrays (broadcasting), split into hi/lo."""
    lo = a * b  # wraps mod 2^64, which is exactly the low half
    a_lo, a_hi = a & _MASK32, a >> _U32
    b_lo, b_hi = b & _MASK32, b >> _U32
    carry = (a_lo * b_lo) >> _U32
    mid1 = a_hi * b_lo
    mid2 = a_lo * b_hi
    cross = carry + (mid1 & _MASK32) + (mid2 & _MASK32)
    hi = a_hi * b_hi + (mid1 >> _U32) + (mid2 >> _U32) + (cross >> _U32)
    return hi, lo


#: Philox-4x64 round multipliers / Weyl key increments (Random123 /
#: numpy's philox.h), as broadcastable lane row pairs.
_M01 = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_W01 = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)


def _philox4x64_10(
    c0: np.ndarray, k0: np.ndarray, k1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One Philox-4x64-10 block per lane for counters ``(c0, 0, 0, 0)``.

    Only the first counter word varies because the reference streams
    never draw anywhere near ``2^64`` blocks, so the carry words stay 0.
    The state runs as column pairs ``a = (c0, c2)``, ``b = (c1, c3)`` so
    each round is one stacked multiply plus two xors:
    ``a' = mulhi(M, a)[::-1] ^ b ^ keys``, ``b' = mullo(M, a)[::-1]``.
    """
    a = np.zeros((c0.size, 2), dtype=np.uint64)
    a[:, 0] = c0
    b = np.zeros_like(a)
    keys = np.stack((k0, k1), axis=1)
    for round_index in range(10):
        if round_index:
            keys = keys + _W01
        hi, lo = _mulhilo64(_M01, a)
        a = hi[:, ::-1] ^ b ^ keys
        b = lo[:, ::-1]
    return a[:, 0], b[:, 0], a[:, 1], b[:, 1]


class NodeStreams:
    """``count`` per-node byte streams, bit-identical to ``derive_rng``.

    Parameters
    ----------
    seed:
        The master seed the reference engine keys its node streams with.
    count:
        Number of node streams (one per node position).
    context:
        The derivation context; the engines use ``("node-local",)`` so
        stream ``v`` matches ``derive_rng(seed, "node-local", v)``.
    """

    def __init__(self, seed: int, count: int, *context: object) -> None:
        self._count = count
        cache_key = (int(seed), context, count)
        cached = _KEY_CACHE.get(cache_key)
        if cached is None:
            key0 = np.empty(count, dtype=np.uint64)
            key1 = np.empty(count, dtype=np.uint64)
            # Hash the shared (seed, *context) prefix once; per node, clone
            # the hasher and append only the node index — same digests as
            # _context_digest(seed, (*context, index)), far fewer updates.
            prefix = hashlib.sha256()
            prefix.update(int(seed).to_bytes(16, "little", signed=True))
            for part in context:
                encoded = repr(part).encode("utf-8")
                prefix.update(len(encoded).to_bytes(4, "little"))
                prefix.update(encoded)
            for index in range(count):
                encoded = repr(index).encode("utf-8")
                hasher = prefix.copy()
                hasher.update(len(encoded).to_bytes(4, "little"))
                hasher.update(encoded)
                digest = hasher.digest()
                key0[index] = int.from_bytes(digest[:8], "little")
                key1[index] = int.from_bytes(digest[8:16], "little")
            key0.setflags(write=False)
            key1.setflags(write=False)
            _KEY_CACHE[cache_key] = (key0, key1)
            cached = (key0, key1)
        self._key0, self._key1 = cached
        # 32-bit words consumed so far, per stream (Generator.bytes units).
        self._pos = np.zeros(count, dtype=np.int64)

    @property
    def count(self) -> int:
        """Number of independent node streams."""
        return self._count

    def draw(self, nodes: np.ndarray, bits: int) -> np.ndarray:
        """One ``bits``-wide draw per entry of ``nodes``, as uint64 words.

        ``nodes`` must be grouped: all entries for one node consecutive,
        in that node's draw order (the order the reference algorithm
        would call ``random_bits``); repeated nodes advance that node's
        stream once per entry.  Returns a ``(len(nodes), W)`` uint64
        array, word 0 least significant — ``W = words_for_bits(bits)``
        — with the top word masked down to the requested width, exactly
        like :func:`repro.rng.random_bits`.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        width_words = words_for_bits(bits)
        if nodes.size == 0:
            return np.zeros((0, width_words), dtype=np.uint64)
        if nodes.size > 1 and np.any(np.diff(nodes) < 0):
            raise ValueError("draw() requires nodes sorted ascending")
        nbytes = (bits + 7) // 8
        quads = (nbytes + 3) // 4  # 32-bit words consumed per draw
        # Within-node occurrence index -> starting 32-bit word per entry.
        boundary = np.empty(nodes.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = nodes[1:] != nodes[:-1]
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, nodes.size))
        occurrence = np.arange(nodes.size) - np.repeat(starts, counts)
        first_word = self._pos[nodes] + quads * occurrence

        with np.errstate(over="ignore"):
            # Global 32-bit word indices needed per entry: (k, quads).
            word32 = first_word[:, None] + np.arange(quads)
            word64 = word32 >> 1
            block = word64 >> 2
            slot = (word64 & 3).astype(np.uint64)
            half = (word32 & 1).astype(np.uint64)
            # One Philox block per distinct (node, block) pair.
            pair = nodes[:, None] * np.int64(int(block.max()) + 1) + block
            unique_pairs, inverse = np.unique(pair, return_inverse=True)
            pair_node = unique_pairs // np.int64(int(block.max()) + 1)
            pair_block = unique_pairs - pair_node * np.int64(int(block.max()) + 1)
            outputs = _philox4x64_10(
                (pair_block + 1).astype(np.uint64),  # counter pre-increments
                self._key0[pair_node],
                self._key1[pair_node],
            )
            stacked = np.stack(outputs, axis=1)  # (pairs, 4) uint64
            lane64 = stacked[inverse.reshape(block.shape), slot]
            lane32 = (lane64 >> (half * _U32)) & _MASK32
            # Truncate the final 32-bit word to the bytes actually kept.
            tail_bytes = nbytes - 4 * (quads - 1)
            if tail_bytes < 4:
                lane32[:, -1] &= np.uint64((1 << (8 * tail_bytes)) - 1)
            # Assemble little-endian words, then mask to the bit width.
            values = np.zeros((nodes.size, width_words), dtype=np.uint64)
            for quad_index in range(quads):
                word_index, shift = divmod(32 * quad_index, 64)
                values[:, word_index] |= lane32[:, quad_index] << np.uint64(shift)
                if shift and word_index + 1 < width_words:
                    values[:, word_index + 1] |= lane32[:, quad_index] >> _U32
            top_bits = bits - 64 * (width_words - 1)
            if top_bits < 64:
                values[:, -1] &= np.uint64((1 << top_bits) - 1)
        unique_nodes = nodes[starts]
        self._pos[unique_nodes] += quads * counts
        return values

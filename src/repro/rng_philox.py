"""Batched Philox streams, bit-identical to ``derive_rng`` generators.

:func:`repro.rng.derive_rng` keys one numpy Philox ``Generator`` per
context.  Constructing thousands of them and drawing from each one by one
is pure-Python work that dominates a vectorised round, so this module
re-implements those exact streams — the SHA-256 keyed Philox-4x64-10
construction of ``derive_rng`` plus the way numpy consumes its words — as
batched numpy kernels over many streams at once.  Two consumers:

* :class:`NodeStreams`: each node's private byte stream, as the per-node
  engine draws it with :func:`repro.rng.random_bits`, for the array-native
  CONGEST algorithms in :mod:`repro.algorithms`;
* the random codes: every codeword a round needs, in two stages, which
  :func:`repro.codes.encode_batch` runs.
  :func:`keyed_blocks` keys any number of stream groups and runs one
  Philox pass over all of their blocks; then :func:`floyd_choices` turns
  a group's words into beep-codeword one-positions, as
  ``derive_rng(...).choice(b, w, replace=False)`` draws them for
  :meth:`repro.codes.BeepCode.encode_int`, and :func:`top_bits` into
  distance-code rows, as ``derive_rng(...).integers(0, 2, size=L,
  dtype=np.uint8)`` draws them for
  :meth:`repro.codes.DistanceCode.encode_int`.

The contract is **bit-identity** (``tests/test_rng_philox.py``,
``tests/codes/test_beep.py`` and ``tests/codes/test_distance.py``).  The
numpy facts the emulation pins:

* Philox yields 64-bit words from a buffered 4x64-bit block whose counter
  is **pre-incremented** (the first block is generated at counter 1), and
  hands out 32-bit words **low half first**;
* ``Generator.bytes(length)`` consumes ``ceil(length / 4)`` 32-bit words
  and truncates the byte string to ``length`` — so an 11-byte draw burns
  12 bytes of stream;
* ``Generator.choice(b, w, replace=False)`` takes Floyd's algorithm unless
  ``b > 10000 and w > b // 50`` (then it shuffles a tail instead).  For
  ``j = b - w, ..., b - 1`` Floyd makes one bounded draw on ``[0, j]`` —
  Lemire's method on the next 32-bit word, which *rejects* and draws again
  when the product's low half falls below ``2^32 mod (j + 1)`` — and keeps
  it unless it is already taken, in which case it keeps ``j``.  ``choice``
  then shuffles the picks, which changes their order but not the set;
* ``Generator.integers(0, 2, size=L, dtype=np.uint8)`` makes one Lemire
  draw of range 2 per byte, which never rejects, so bit ``i`` is the top
  bit of stream byte ``i``.  Bytes come four to a 32-bit word, low byte
  first, so the stream's bytes are the little-endian bytes of its 64-bit
  words: ``ceil(L / 32)`` blocks per value.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .rng import _context_hasher, _hash_parts

__all__ = [
    "NodeStreams",
    "bit_blocks",
    "choice_blocks",
    "floyd_choices",
    "keyed_blocks",
    "top_bits",
    "words_for_bits",
]

_MASK32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)

#: Philox blocks per kernel pass: small enough that the dozen uint64
#: scratch columns of a pass stay cache-resident, large enough to amortise
#: numpy's per-call overhead (about 16k is fastest on x86-64 hosts).
_KERNEL_CHUNK = 1 << 14

#: 32-bit draws per lane chunk of :func:`floyd_choices`; a chunk holds
#: ``_LANE_DRAWS // size`` streams, so its scratch stays a few MB for any
#: population and sample size.
_LANE_DRAWS = 1 << 18

#: Philox-4x64 round multipliers and Weyl key increments (Random123 /
#: numpy's philox.h).
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)


def words_for_bits(bits: int) -> int:
    """How many 64-bit words a ``bits``-wide value spans (min 1)."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return (bits + 63) // 64


def _context_keys(
    seed: int, context: Sequence[object], parts: Iterable[object]
) -> tuple[np.ndarray, np.ndarray]:
    """Philox key columns of ``derive_rng(seed, *context, part)`` per part.

    Hashes the shared ``(seed, *context)`` prefix once and copies the
    hasher per part: the same digests as ``rng._context_digest``, far
    fewer updates.  ``derive_rng`` keys Philox with the digest's first 16
    bytes as a little-endian integer, i.e. words ``(key0, key1)``.
    """
    prefix = _context_hasher(seed, context)
    digests = bytearray()
    for part in parts:
        digests += _hash_parts(prefix.copy(), (part,)).digest()[:16]
    words = np.frombuffer(bytes(digests), dtype="<u8").reshape(-1, 2)
    return words[:, 0].astype(np.uint64), words[:, 1].astype(np.uint64)


def _mulhilo(
    multiplier: int,
    x: np.ndarray,
    hi: np.ndarray,
    lo: np.ndarray,
    t0: np.ndarray,
    t1: np.ndarray,
    t2: np.ndarray,
) -> None:
    """``hi:lo = multiplier * x`` as 128 bits, written in place.

    ``t0..t2`` are scratch columns; ``lo`` may alias ``x`` (it is written
    last).  The high half comes from 32-bit limbs, summed so that no
    partial sum overflows 64 bits.
    """
    m_lo = np.uint64(multiplier & 0xFFFFFFFF)
    m_hi = np.uint64(multiplier >> 32)
    np.bitwise_and(x, _MASK32, out=t0)  # x_lo
    np.right_shift(x, _U32, out=t1)  # x_hi
    np.multiply(t0, m_lo, out=t2)
    np.right_shift(t2, _U32, out=t2)  # carry out of x_lo * m_lo
    np.multiply(t1, m_lo, out=hi)
    hi += t2  # x_hi * m_lo + carry
    np.bitwise_and(hi, _MASK32, out=t2)
    hi >>= _U32
    t0 *= m_hi
    t0 += t2  # x_lo * m_hi + low limb of the line above
    t0 >>= _U32
    t1 *= m_hi
    hi += t1
    hi += t0
    np.multiply(x, np.uint64(multiplier), out=lo)


def _philox4x64_10(
    counter: np.ndarray, key0: np.ndarray, key1: np.ndarray
) -> np.ndarray:
    """One Philox-4x64-10 block per lane for counters ``(counter, 0, 0, 0)``.

    Returns an ``(N, 4)`` uint64 array whose row ``i`` is block
    ``counter[i]`` of ``np.random.Philox(key=key0[i] + 2**64 * key1[i])``.
    Only the first counter word varies because the streams never draw
    anywhere near ``2^64`` blocks, so the carry words stay 0.  Lanes run
    in passes of :data:`_KERNEL_CHUNK`, each round on separate state
    columns: ``(c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))``, then the keys step by the Weyl
    increments.
    """
    lanes = counter.size
    out = np.empty((lanes, 4), dtype=np.uint64)
    scratch = np.empty((11, min(lanes, _KERNEL_CHUNK)), dtype=np.uint64)
    for start in range(0, lanes, _KERNEL_CHUNK):
        stop = min(start + _KERNEL_CHUNK, lanes)
        c0, c1, c2, c3, k0, k1, hi0, hi1, t0, t1, t2 = scratch[:, : stop - start]
        c0[:] = counter[start:stop]
        c1.fill(0)
        c2.fill(0)
        c3.fill(0)
        k0[:] = key0[start:stop]
        k1[:] = key1[start:stop]
        for round_index in range(10):
            if round_index:
                k0 += _W0
                k1 += _W1
            _mulhilo(_M0, c0, hi0, c0, t0, t1, t2)  # c0 <- lo(M0 c0)
            _mulhilo(_M1, c2, hi1, c2, t0, t1, t2)  # c2 <- lo(M1 c2)
            hi1 ^= c1
            hi1 ^= k0
            hi0 ^= c3
            hi0 ^= k1
            c0, c1, c2, c3, hi0, hi1 = hi1, c2, hi0, c0, c1, c3
        for column, word in enumerate((c0, c1, c2, c3)):
            out[start:stop, column] = word
    return out


def _floyd_applies(population: int, size: int) -> bool:
    """Whether ``choice(population, size, replace=False)`` runs Floyd's
    algorithm on 32-bit Lemire draws, one word per step (so it can be
    emulated): numpy's branch condition, plus a population below ``2^31``
    (so every product below fits) and ``0 < size < population`` (every
    ``j`` is then at least 1, and a draw on ``[0, 0]`` takes no word)."""
    tail_shuffle = population > 10000 and size > population // 50
    return 0 < size < population < 1 << 31 and not tail_shuffle


def _floyd_sets(picks: np.ndarray, population: int) -> np.ndarray:
    """The sorted sets Floyd's algorithm keeps, given its raw draws.

    ``picks[:, i]`` is step ``i``'s draw on ``[0, j_i]``, ``j_i =
    population - size + i``; the step keeps it unless it is already
    taken, else it keeps ``j_i``.  Every earlier draw is in the set by
    step ``i`` (kept, or itself a collision with a member), and the other
    members are the ``j_t`` of colliding steps ``t < i``.  So step ``i``
    collides iff its draw repeats an earlier draw, or equals ``j_t`` for
    some earlier step ``t`` that collided.  The second rule points
    strictly backwards, so a short fixpoint resolves every chain.
    """
    lanes, size = picks.shape
    first_j = population - size
    step = np.arange(size)
    # Repeats: sort (draw, step) pairs per lane; each later equal draw collides.
    order = np.sort(picks * size + step, axis=1)
    lane, column = np.nonzero(order[:, 1:] // size == order[:, :-1] // size)
    collided = np.zeros((lanes, size), dtype=bool)
    collided[lane, order[lane, column + 1] % size] = True
    # Draws equal to an earlier step's j collide iff that step did.
    earlier = picks - first_j
    lane, column = np.nonzero((earlier >= 0) & (earlier < step) & ~collided)
    target = earlier[lane, column]
    while lane.size:
        hit = collided[lane, target]
        if not hit.any():
            break
        collided[lane[hit], column[hit]] = True
        lane, column, target = lane[~hit], column[~hit], target[~hit]
    return np.sort(np.where(collided, first_j + step, picks), axis=1)


def keyed_blocks(
    groups: Sequence[tuple[int, Sequence[object], Sequence[object], int]],
) -> list[np.ndarray]:
    """The first blocks of many ``derive_rng`` streams, in one Philox pass.

    Each group ``(seed, context, parts, blocks)`` names the streams
    ``derive_rng(seed, *context, part)``, one per part, and how many
    Philox blocks each of them needs.  Returns, per group, a
    ``(len(parts), 4 * blocks)`` uint64 array whose row ``i`` is stream
    ``i``'s first 64-bit words in order.  The lanes of every group run
    through one :func:`_philox4x64_10` call, so a round that needs the
    codewords of several codes pays numpy's per-call overhead once.
    """
    shapes, counters, key0, key1 = [], [], [], []
    for seed, context, parts, blocks in groups:
        shapes.append((len(parts), 4 * blocks))
        if parts and blocks:
            keys = _context_keys(seed, context, parts)
            key0.append(np.repeat(keys[0], blocks))
            key1.append(np.repeat(keys[1], blocks))
            counters.append(
                np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(parts))
            )
    raw = (
        _philox4x64_10(
            np.concatenate(counters), np.concatenate(key0), np.concatenate(key1)
        )
        if counters
        else np.empty((0, 4), dtype=np.uint64)
    )
    out, start = [], 0
    for lanes, words in shapes:
        stop = start + lanes * words // 4
        out.append(raw[start:stop].reshape(lanes, words))
        start = stop
    return out


def choice_blocks(population: int, size: int) -> int:
    """Philox blocks :func:`floyd_choices` reads per stream; 0 when numpy
    runs a branch it cannot reproduce (a block holds eight 32-bit draws)."""
    return (size + 7) // 8 if _floyd_applies(population, size) else 0


def floyd_choices(
    raw: np.ndarray, population: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``sorted(choice(population, size, replace=False))`` per stream.

    ``raw`` holds each stream's first :func:`choice_blocks` blocks, as
    :func:`keyed_blocks` returns them.  Returns ``(positions, exact)``:
    a ``(len(raw), size)`` int64 array and a boolean mask of the rows
    the emulation reproduced.  The other rows are zeros and must come
    from the reference generator: streams in which a Lemire draw rejects
    (it would consume an extra word, about one stream in ten thousand at
    ``b = 5184``), and every stream when numpy takes its tail-shuffle
    branch (see the module docstring).
    """
    count = len(raw)
    positions = np.zeros((count, size), dtype=np.int64)
    exact = np.zeros(count, dtype=bool)
    if not count or not _floyd_applies(population, size):
        return positions, exact
    bound = np.arange(population - size + 1, population + 1, dtype=np.uint64)
    reject_below = np.uint64(1 << 32) % bound  # Lemire's threshold per step
    # Viewing little-endian uint64 words as uint32 pairs yields each
    # word's low half first, Philox's own order.
    draws = raw.astype("<u8", copy=False).view("<u4")
    chunk = max(1, _LANE_DRAWS // size)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        scaled = draws[start:stop, :size].astype(np.uint64) * bound
        exact[start:stop] = ~np.any((scaled & _MASK32) < reject_below, axis=1)
        picks = (scaled >> _U32).astype(np.int64)
        positions[start:stop] = _floyd_sets(picks, population)
    return positions, exact


def bit_blocks(length: int) -> int:
    """Philox blocks :func:`top_bits` reads per stream: one byte per bit,
    32 bytes per block."""
    return (length + 31) // 32


def top_bits(raw: np.ndarray, length: int) -> np.ndarray:
    """``integers(0, 2, size=length, dtype=np.uint8)`` per stream, as bools.

    ``raw`` holds each stream's first :func:`bit_blocks` blocks, as
    :func:`keyed_blocks` returns them.  Bit ``i`` is the top bit of the
    stream's byte ``i`` (see the module docstring).
    """
    return raw.astype("<u8", copy=False).view(np.uint8)[:, :length] >= 128


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
        self._key0, self._key1 = _context_keys(seed, context, range(count))
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
            stacked = _philox4x64_10(
                (pair_block + 1).astype(np.uint64),  # counter pre-increments
                self._key0[pair_node],
                self._key1[pair_node],
            )  # (pairs, 4) uint64
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

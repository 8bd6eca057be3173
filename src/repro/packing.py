"""Bit-packing primitives for the ``uint64`` hot path.

A boolean ``(n, rounds)`` schedule packs into a ``(n, ceil(rounds/64))``
``uint64`` matrix: round ``t`` of row ``v`` lives in bit ``t % 64`` of word
``t // 64`` (little-endian bit order, matching ``numpy.packbits`` with
``bitorder="little"``).  Packing and unpacking round-trip exactly, so any
boolean pipeline can hop into the packed domain for its OR/XOR-heavy middle
and hop back out bit-identically.  :func:`pack_columns` packs a
round-major ``(rounds, n)`` block, as a Philox noise window fills, into
the same layout without transposing the booleans.

The module sits in the foundations layer: the schedule kernels pack
schedules with it, and the noise layer stores its flip windows in its
word layout (``repro.engine`` re-exports the names).  Beside the packing
sits :func:`sorted_unique`, the sort-based unique of integer keys the
round finish and the topology builder share.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "WORD_BITS",
    "pack_columns",
    "pack_rows",
    "sorted_unique",
    "unpack_rows",
    "words_for",
]

#: Bits per packed word.
WORD_BITS = 64

_WORD_BYTES = WORD_BITS // 8

#: Bit weights of the eight rounds that share a byte.
_BYTE_WEIGHTS = (1 << np.arange(8)).astype(np.uint8)


def words_for(bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``bits`` bits."""
    return (bits + WORD_BITS - 1) // WORD_BITS


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n, width)`` matrix into ``(n, words)`` ``uint64``.

    Bit ``t % 64`` of word ``t // 64`` in row ``v`` is ``matrix[v, t]``;
    trailing pad bits are zero.
    """
    matrix = np.ascontiguousarray(matrix, dtype=bool)
    if matrix.ndim != 2:
        raise ConfigurationError(
            f"pack_rows expects a 2-D matrix, got {matrix.ndim}-D"
        )
    n, width = matrix.shape
    words = words_for(width)
    if words == 0:
        return np.zeros((n, 0), dtype=np.uint64)
    packed_bytes = np.packbits(matrix, axis=1, bitorder="little")
    pad = words * _WORD_BYTES - packed_bytes.shape[1]
    if pad:
        packed_bytes = np.pad(packed_bytes, ((0, 0), (0, pad)))
    # Explicit little-endian view: word values are sum(bit_t << t) on every
    # platform (on little-endian hosts "<u8" is native and this is free).
    return np.ascontiguousarray(packed_bytes).view(np.dtype("<u8"))


def pack_columns(matrix: np.ndarray) -> np.ndarray:
    """``pack_rows(matrix.T)`` of a boolean ``(width, n)`` matrix.

    Row ``t`` of ``matrix`` is round ``t``, so column ``v`` packs into
    row ``v`` of the ``(n, words)`` result; pad bits are zero.  The
    booleans are never transposed: the eight rounds of each byte are
    eight ``(width / 8, n)`` byte planes, combined by one weighted sum
    (their bits are disjoint, so the sum is their OR), and only the
    eight times smaller byte matrix is transposed.
    """
    matrix = np.ascontiguousarray(matrix, dtype=bool)
    if matrix.ndim != 2:
        raise ConfigurationError(
            f"pack_columns expects a 2-D matrix, got {matrix.ndim}-D"
        )
    width, n = matrix.shape
    pad = words_for(width) * WORD_BITS - width
    if pad:
        matrix = np.concatenate((matrix, np.zeros((pad, n), dtype=bool)))
    planes = matrix.view(np.uint8).reshape(matrix.shape[0] // 8, 8, n)
    packed_bytes = np.einsum("jbn,b->nj", planes, _BYTE_WEIGHTS)
    return np.ascontiguousarray(packed_bytes).view(np.dtype("<u8"))


def unpack_rows(packed: np.ndarray, width: int) -> np.ndarray:
    """Unpack ``(n, words)`` ``uint64`` back to a boolean ``(n, width)`` matrix."""
    packed = np.ascontiguousarray(packed, dtype=np.dtype("<u8"))
    if packed.ndim != 2:
        raise ConfigurationError(
            f"unpack_rows expects a 2-D matrix, got {packed.ndim}-D"
        )
    n = packed.shape[0]
    if width < 0 or width > packed.shape[1] * WORD_BITS:
        raise ConfigurationError(
            f"width {width} does not fit {packed.shape[1]} packed words"
        )
    if width == 0 or n == 0:
        return np.zeros((n, width), dtype=bool)
    as_bytes = packed.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little", count=width)
    # unpackbits yields a fresh 0/1 uint8 buffer; reinterpreting it as
    # bool is free, where astype would copy the whole matrix again.
    return bits.view(np.bool_)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D integer array, as ``np.unique``.

    A sort and a neighbour-difference mask: numpy 2's ``np.unique`` takes
    a hash-table path on integer keys that is about 15 times slower at
    the round finish's sizes (thousands of keys).
    """
    keys = np.sort(keys)
    distinct = np.empty(keys.shape, dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return keys[distinct]

"""Bit-packing primitives for the ``uint64`` hot path.

A boolean ``(n, rounds)`` schedule packs into a ``(n, ceil(rounds/64))``
``uint64`` matrix: round ``t`` of row ``v`` lives in bit ``t % 64`` of word
``t // 64`` (little-endian bit order, matching ``numpy.packbits`` with
``bitorder="little"``).  Packing and unpacking round-trip exactly, so any
boolean pipeline can hop into the packed domain for its OR/XOR-heavy middle
and hop back out bit-identically.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["WORD_BITS", "pack_rows", "unpack_rows", "words_for"]

#: Bits per packed word.
WORD_BITS = 64

_WORD_BYTES = WORD_BITS // 8


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

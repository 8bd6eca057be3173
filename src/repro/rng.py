"""Deterministic, hierarchical random-number generation.

Distributed protocols in this library need two kinds of randomness:

* **Shared randomness** — e.g. the beep code ``C`` and distance code ``D`` of
  the paper are public objects known to every node.  They are derived from a
  single experiment seed plus a string context, so every node (and every
  re-run) sees the same code.
* **Local randomness** — each node's private coins (the random string ``r_v``
  in Algorithm 1, Luby's edge values, ...).  These are derived from the same
  experiment seed plus the node identifier, making whole experiments exactly
  reproducible while keeping per-node streams statistically independent.

Both are built on :func:`derive_rng`, a counter-mode PRF construction: the
seed material and context are hashed with SHA-256, and the digest keys a
Philox generator.  Philox is used (rather than the default PCG64) because
keyed construction from arbitrary 128-bit material is part of its design.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = [
    "derive_rng", "derive_seed", "spawn_rngs", "random_bits", "random_bits_many"
]


def random_bits(rng: np.random.Generator, bits: int) -> int:
    """Sample a uniform integer in ``[0, 2^bits)`` for any bit width.

    ``Generator.integers`` is limited to 64-bit bounds; protocol values
    (e.g. the paper's ``x(e) ∈ [n⁹]`` samples and the random strings
    ``r_v``) routinely exceed that, so values are assembled from raw bytes
    and masked down to the requested width.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    raw = int.from_bytes(rng.bytes((bits + 7) // 8), "little")
    return raw & ((1 << bits) - 1)


def random_bits_many(
    rng: np.random.Generator, count: int, bits: int
) -> list[int]:
    """``count`` calls of :func:`random_bits`, from one ``Generator.bytes`` call.

    Equal, value for value, to ``[random_bits(rng, bits) for _ in
    range(count)]``: each of those calls consumes whole 32-bit words, so
    draw ``i``'s bytes start at ``i`` times the rounded-up stride, and
    the stream is left exactly where the calls would leave it.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if not count:
        return []  # numpy's bytes(0) still consumes a word
    nbytes = (bits + 7) // 8
    stride = 4 * ((nbytes + 3) // 4)
    data = rng.bytes(count * stride)
    mask = (1 << bits) - 1
    return [
        int.from_bytes(data[start : start + nbytes], "little") & mask
        for start in range(0, count * stride, stride)
    ]


def _hash_parts(
    hasher: "hashlib._Hash", parts: Iterable[object]
) -> "hashlib._Hash":
    """Append each context part to ``hasher`` (length-prefixed ``repr``).

    A numpy integer is keyed as the Python int it equals (numpy 2's
    ``repr`` would say ``np.int64(5)``).  Nearly every part is a plain
    ``int`` or ``str``, so those two type tests run before the
    ``isinstance`` test.
    """
    for part in parts:
        kind = type(part)
        if kind is not int and kind is not str and isinstance(part, np.integer):
            part = int(part)
        encoded = repr(part).encode("utf-8")
        hasher.update(len(encoded).to_bytes(4, "little"))
        hasher.update(encoded)
    return hasher


def _context_hasher(seed: int, context: Iterable[object]) -> "hashlib._Hash":
    """The SHA-256 state after hashing ``seed`` and a context tuple.

    Batched key derivations (:mod:`repro.rng_philox`) hash a shared
    prefix once and ``copy()`` this state per trailing part.
    """
    hasher = hashlib.sha256()
    hasher.update(int(seed).to_bytes(16, "little", signed=True))
    return _hash_parts(hasher, context)


def _context_digest(seed: int, context: Iterable[object]) -> bytes:
    """Hash ``seed`` and a context tuple into 32 bytes of key material."""
    return _context_hasher(seed, context).digest()


def derive_seed(seed: int, *context: object) -> int:
    """Derive a 63-bit integer sub-seed from ``seed`` and a context tuple.

    The derivation is stable across processes and Python versions (it does
    not use ``hash()``).
    """
    digest = _context_digest(seed, context)
    return int.from_bytes(digest[:8], "little") >> 1


def derive_rng(seed: int, *context: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` keyed by ``seed`` + context.

    Calls with equal arguments return generators producing identical
    streams; distinct contexts give statistically independent streams.

    >>> derive_rng(7, "beep-code", 3).integers(100) == \\
    ...     derive_rng(7, "beep-code", 3).integers(100)
    True
    """
    digest = _context_digest(seed, context)
    # A scalar int key takes Philox's fast construction path and yields
    # the same 2x64-bit key (little-endian) as the frombuffer view did —
    # identical streams, measurably cheaper per derivation.
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def spawn_rngs(seed: int, count: int, *context: object) -> list[np.random.Generator]:
    """Return ``count`` independent generators under a shared context.

    Convenience for per-node local randomness: ``spawn_rngs(seed, n,
    "local")[v]`` is node ``v``'s private stream.
    """
    return [derive_rng(seed, *context, index) for index in range(count)]

"""Common interface for binary codes ``C : {0,1}^a → {0,1}^b``."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Sequence

import numpy as np

from .. import bitstrings
from ..bitstrings import BitString
from ..errors import ConfigurationError
from ..rng_philox import keyed_blocks

__all__ = ["Code", "encode_batch"]

#: :func:`encode_batch`'s two stages for one request: the
#: :func:`~repro.rng_philox.keyed_blocks` group of its codeword streams,
#: and the function that turns the group's blocks into the request's rows.
Streams = tuple[tuple, Callable[[np.ndarray], np.ndarray]]


class Code(ABC):
    """A binary code mapping ``a``-bit inputs to ``b``-bit codewords.

    Subclasses implement :meth:`encode_int`; encoding of bit strings and
    bounds checking are provided here.  Codes in this library are *pure
    functions of (parameters, seed, input)*: two instances constructed with
    equal parameters produce identical codewords, which is how all nodes of
    a network share a code without communication.  Codewords are derived
    on every call and never cached: the simulation draws fresh random
    inputs each round, so a cache would not hit.  Callers that re-scan a
    fixed set encode it once (``encode_many``) and keep the matrix.
    """

    def __init__(self, input_bits: int, length: int) -> None:
        if input_bits < 1:
            raise ConfigurationError(f"input_bits must be >= 1, got {input_bits}")
        if length < 1:
            raise ConfigurationError(f"code length must be >= 1, got {length}")
        self._input_bits = input_bits
        self._length = length

    @property
    def input_bits(self) -> int:
        """Number of input bits ``a``."""
        return self._input_bits

    @property
    def length(self) -> int:
        """Codeword length ``b``."""
        return self._length

    @property
    def num_codewords(self) -> int:
        """Size of the code's domain, ``2^a``."""
        return 1 << self._input_bits

    @abstractmethod
    def encode_int(self, value: int) -> BitString:
        """Return the codeword for the input interpreted as an integer."""

    def encode(self, bits: BitString) -> BitString:
        """Return the codeword for an ``a``-bit input string."""
        if len(bits) != self._input_bits:
            raise ConfigurationError(
                f"input has {len(bits)} bits, code expects {self._input_bits}"
            )
        return self.encode_int(bitstrings.to_int(bits))

    def _check_value(self, value: int) -> None:
        if not 0 <= value < self.num_codewords:
            raise ConfigurationError(
                f"input value {value} outside [0, 2^{self._input_bits})"
            )

    def _checked_values(self, values: Iterable[int]) -> list[int]:
        """``values`` as Python ints, each checked like :meth:`encode_int`'s
        input (stream keys hash the ``repr`` of a Python int)."""
        checked = [int(value) for value in values]
        if checked and not 0 <= min(checked) <= max(checked) < self.num_codewords:
            for value in checked:  # raise on the first value out of range
                self._check_value(value)
        return checked

    def _streams(self, values: list[int]) -> Streams:
        """:func:`encode_batch`'s stages for the checked ``values``; only the
        random codes keyed by ``(seed, input)`` have them."""
        raise TypeError(f"{type(self).__name__} has no batched encoder")

    def _check_word(self, word: BitString) -> None:
        if len(word) != self._length:
            raise ConfigurationError(
                f"word has {len(word)} bits, code length is {self._length}"
            )


def encode_batch(
    requests: Sequence[tuple[Code, Iterable[int]]],
) -> list[np.ndarray]:
    """Encode several value lists, under several random codes, in one pass.

    Request ``(code, values)`` gives ``code.encode_positions(values)`` for
    a :class:`~repro.codes.BeepCode` and ``code.encode_many(values)`` for
    a :class:`~repro.codes.DistanceCode`, in request order; those two
    methods are this function on one request.  Both codes key each
    codeword's stream by ``(seed, input)``, so the streams of every
    request run through one :func:`~repro.rng_philox.keyed_blocks` pass,
    and a round that needs codewords of several codes and replicas pays
    numpy's per-call Philox overhead once.
    """
    stages = [code._streams(code._checked_values(values)) for code, values in requests]
    blocks = keyed_blocks([group for group, _ in stages])
    return [finish(raw) for (_, finish), raw in zip(stages, blocks)]

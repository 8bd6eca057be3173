"""Common interface for binary codes ``C : {0,1}^a → {0,1}^b``."""

from __future__ import annotations

from abc import ABC, abstractmethod

from .. import bitstrings
from ..bitstrings import BitString
from ..errors import ConfigurationError

__all__ = ["Code"]


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

    def _check_word(self, word: BitString) -> None:
        if len(word) != self._length:
            raise ConfigurationError(
                f"word has {len(word)} bits, code length is {self._length}"
            )

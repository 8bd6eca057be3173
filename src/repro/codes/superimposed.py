"""Classical ``(a, k)``-superimposed codes (Definition 1) via Kautz–Singleton.

The construction of Kautz and Singleton [23]: concatenate a Reed–Solomon
outer code over GF(p) with the one-hot (identity) inner code.  Each RS
symbol becomes ``p`` bits with a single one, so a codeword has length ``p²``
and weight ``p``.  Two distinct codewords share at most ``m - 1``
one-positions (RS agreement bound), hence a union of ``k`` codewords covers
at most ``k (m - 1) < p`` ones of any other codeword: the code is
``k``-superimposed whenever ``p > k (m - 1)``.

This is the baseline the paper argues is too long for message passing:
its length is ``O(k² a)`` versus the beep code's ``O(c² k a)`` with the
weaker most-subsets-decodable guarantee (Section 1.4).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .. import bitstrings
from ..bitstrings import BitString
from ..errors import ConfigurationError
from .base import Code
from .reed_solomon import ReedSolomonCode, next_prime

__all__ = ["KautzSingletonCode", "is_k_superimposed"]


def _choose_parameters(input_bits: int, k: int) -> tuple[int, int]:
    """Find a field prime ``p`` and symbol count ``m`` satisfying
    ``p^m >= 2^a`` and ``p > k (m - 1)`` with small ``p²``.

    The two constraints are circular (``m`` shrinks as ``p`` grows), so we
    iterate ``p`` upward and take the first feasible pair.
    """
    p = next_prime(max(2, k + 1))
    while True:
        m = max(1, math.ceil(input_bits / math.log2(p)))
        if ReedSolomonCode.bits_capacity(p, m) < input_bits:
            m += 1
        if p > k * (m - 1):
            return p, m
        p = next_prime(p + 1)


class KautzSingletonCode(Code):
    """A deterministic ``(a, k)``-superimposed code of length ``p²``.

    Any union of at most ``k`` codewords uniquely identifies its members;
    decoding is by the standard cover test (a codeword is present iff all
    its ones appear in the union).
    """

    def __init__(self, input_bits: int, k: int) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self._k = k
        p, m = _choose_parameters(input_bits, k)
        self._rs = ReedSolomonCode(p, m)
        super().__init__(input_bits, p * p)

    @property
    def k(self) -> int:
        """Superimposition size the code tolerates."""
        return self._k

    @property
    def field_size(self) -> int:
        """The outer Reed–Solomon field prime ``p``."""
        return self._rs.field_size

    @property
    def message_symbols(self) -> int:
        """The outer Reed–Solomon message length ``m``."""
        return self._rs.message_symbols

    @property
    def weight(self) -> int:
        """Every codeword has exactly ``p`` ones (one per RS position)."""
        return self._rs.field_size

    def encode_int(self, value: int) -> BitString:
        """One-hot-concatenate the RS codeword of ``value``."""
        self._check_value(value)
        p = self._rs.field_size
        symbols = self._rs.encode_int(value)
        word = np.zeros(p * p, dtype=bool)
        for position, symbol in enumerate(symbols):
            word[position * p + symbol] = True
        return word

    def decode_union(
        self, union: BitString, candidates: Iterable[int] | None = None
    ) -> set[int]:
        """Cover-test decoding of a (noiseless) union of codewords.

        Returns every candidate whose codeword is entirely contained in the
        union.  For unions of at most ``k`` codewords the result is exactly
        the encoded set.
        """
        self._check_word(union)
        if candidates is None:
            candidates = range(self.num_codewords)
        missing = bitstrings.complement(union)
        return {
            value
            for value in candidates
            if bitstrings.intersection_weight(self.encode_int(value), missing) == 0
        }


def is_k_superimposed(code: Code, k: int, messages: Sequence[int] | None = None) -> bool:
    """Exhaustively verify Definition 1 on (a subset of) a code's domain.

    Checks that no union of ``k`` codewords covers a codeword outside the
    union.  Cost is ``O(|messages|^{k+1})`` — intended for the small
    parameters used in tests and experiment E14.
    """
    if messages is None:
        messages = list(range(code.num_codewords))
    words = {m: code.encode_int(m) for m in messages}
    for subset in itertools.combinations(messages, min(k, len(messages))):
        union = bitstrings.superimpose([words[m] for m in subset])
        missing = bitstrings.complement(union)
        for other in messages:
            if other in subset:
                continue
            if bitstrings.intersection_weight(words[other], missing) == 0:
                return False
    return True

"""``(a, δ)``-distance codes (Definition 5, Lemma 6).

A distance code of length ``b`` maps ``a``-bit inputs to ``b``-bit codewords
such that every pair of distinct codewords has Hamming distance at least
``δb``.  Lemma 6 shows random codes achieve this with high probability when
``b = c_δ a`` for ``c_δ ≥ 12 (1 - 2δ)^{-2}``.

Codewords are generated lazily: codeword ``D(m)`` is a uniformly random
``b``-bit string keyed by ``(seed, m)``, exactly the random construction of
the lemma's proof, without materialising all ``2^a`` codewords.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .. import bitstrings
from ..bitstrings import BitString
from ..errors import ConfigurationError
from ..rng import derive_rng
from ..rng_philox import bit_blocks, top_bits
from .base import Code, Streams, encode_batch

__all__ = ["DistanceCode", "paper_c_delta", "minimum_pairwise_distance"]


def paper_c_delta(delta: float) -> float:
    """The paper-strict length multiplier ``c_δ = 12 (1 - 2δ)^{-2}`` of Lemma 6."""
    if not 0.0 < delta < 0.5:
        raise ConfigurationError(f"delta must be in (0, 1/2), got {delta}")
    return 12.0 / (1.0 - 2.0 * delta) ** 2


class DistanceCode(Code):
    """A random ``(a, δ)``-distance code.

    Parameters
    ----------
    input_bits:
        Input size ``a``.
    delta:
        Target relative minimum distance ``δ ∈ (0, 1/2)``.
    length:
        Codeword length ``b``.  If omitted, the paper-strict
        ``b = ceil(c_δ a)`` from Lemma 6 is used.
    seed:
        Keys the code; equal seeds give identical codes everywhere.
    """

    def __init__(
        self,
        input_bits: int,
        delta: float,
        length: int | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 < delta < 0.5:
            raise ConfigurationError(f"delta must be in (0, 1/2), got {delta}")
        if length is None:
            length = math.ceil(paper_c_delta(delta) * input_bits)
        super().__init__(input_bits, length)
        self._delta = delta
        self._seed = seed

    @property
    def delta(self) -> float:
        """Target relative minimum distance ``δ``."""
        return self._delta

    @property
    def min_distance(self) -> int:
        """The guaranteed pairwise distance ``δb`` (floored)."""
        return math.floor(self._delta * self.length)

    @property
    def seed(self) -> int:
        """The seed keying this code."""
        return self._seed

    def encode_int(self, value: int) -> BitString:
        """Return ``D(value)``: a uniform random string keyed by the input."""
        self._check_value(value)
        rng = derive_rng(self._seed, "distance-code", self.length, value)
        return bitstrings.random_bitstring(rng, self.length)

    def encode_many(self, values: Sequence[int]) -> np.ndarray:
        """``D(v)`` for every ``v`` in ``values``, as a ``(len(values), b)``
        boolean matrix.

        Row ``i`` equals ``encode_int(values[i])``, computed for all values
        in one vectorised pass over its exact stream
        (:func:`repro.codes.encode_batch`: the Philox blocks, then
        :func:`~repro.rng_philox.top_bits`): a range-2 byte draw never
        rejects, so no row needs the reference generator.
        """
        [rows] = encode_batch([(self, values)])
        return rows

    def _streams(self, values: list[int]) -> Streams:
        """The top-bit stage over each value's first
        :func:`~repro.rng_philox.bit_blocks` blocks."""
        length = self.length
        group = (self._seed, ("distance-code", length), values, bit_blocks(length))
        return group, lambda blocks: top_bits(blocks, length)

    def decode_nearest(
        self, word: BitString, candidates: Iterable[int] | None = None
    ) -> tuple[int, int]:
        """Nearest-codeword decoding (the rule of Lemma 10).

        Returns ``(message, distance)`` for the candidate message whose
        codeword minimises Hamming distance to ``word``.  Ties break toward
        the smaller message value, making decoding deterministic.

        ``candidates`` defaults to the full domain ``[0, 2^a)`` — exhaustive
        decoding exactly as the paper describes, exponential in ``a``; pass
        an explicit candidate set for large codes (see
        docs/ARCHITECTURE.md, "Candidate policies").
        """
        self._check_word(word)
        if candidates is None:
            candidates = range(self.num_codewords)
        best_message = -1
        best_distance = self.length + 1
        for message in candidates:
            distance = bitstrings.hamming(self.encode_int(message), word)
            if distance < best_distance or (
                distance == best_distance and message < best_message
            ):
                best_message = message
                best_distance = distance
        if best_message < 0:
            raise ConfigurationError("decode_nearest needs at least one candidate")
        return best_message, best_distance

    def failure_probability_bound(self) -> float:
        """Lemma 6's bound on the probability the random code is *not* an
        ``(a, δ)``-distance code: ``2^{-2a}`` when ``b ≥ c_δ a``."""
        exponent = -((1.0 - 2.0 * self._delta) ** 2) * self.length / 4.0
        per_pair = math.exp(exponent)
        pairs = 2.0 ** (2 * self.input_bits)
        return min(1.0, pairs * per_pair)


def minimum_pairwise_distance(
    code: Code, messages: Sequence[int] | None = None
) -> int:
    """Measure the minimum pairwise Hamming distance over given messages.

    ``messages`` defaults to the full domain (exponential in ``a``; intended
    for the small codes used in tests and the E3 experiment).
    """
    if messages is None:
        messages = list(range(code.num_codewords))
    words = [code.encode_int(m) for m in messages]
    if len(words) < 2:
        raise ConfigurationError("need at least two codewords to measure distance")
    stacked = np.stack(words)
    best = code.length
    for index in range(len(words) - 1):
        distances = np.count_nonzero(stacked[index + 1 :] != stacked[index], axis=1)
        best = min(best, int(distances.min()))
    return best

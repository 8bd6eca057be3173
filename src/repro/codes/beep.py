"""``(a, k, δ)``-beep codes (Definition 3, Theorem 4).

The paper's novel relaxation of superimposed codes: all codewords have
weight exactly ``δb/k``, and *most* (a ``1 - 2^{-2a}`` fraction of) size-k
codeword subsets have a superimposition that does not ``5δ²b/k``-intersect
any other codeword.  Theorem 4 realises this with ``δ = 1/c`` and length
``b = c²ka``, giving codeword weight ``ca`` and intersection threshold
``5a``.

Construction (exactly the theorem's): each codeword is drawn uniformly from
the ``b``-bit strings of weight ``b/(ck)``, keyed by ``(seed, input)``, so
the code is shared by all nodes without communication and no ``2^a`` table
is ever materialised.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .. import bitstrings
from ..bitstrings import BitString
from ..errors import ConfigurationError
from ..rng import derive_rng
from ..rng_philox import choice_blocks, floyd_choices
from .base import Code, Streams, encode_batch

__all__ = ["BeepCode"]


class BeepCode(Code):
    """A random ``(a, k, 1/c)``-beep code of length ``b = c²ka``.

    Parameters
    ----------
    input_bits:
        Input size ``a``.
    k:
        Superimposition size the code must tolerate (``Δ + 1`` in the
        simulation algorithm).
    c:
        The inverse-density parameter (``c = c_ε`` in the paper).  Must be
        ``>= 3``: Theorem 4 notes the property is vacuous for ``c <= 2``.
    seed:
        Keys the code.
    length:
        Override the codeword length ``b`` (defaults to the theorem's
        ``c²ka``).  Must keep ``weight = b/(ck)`` integral.
    """

    #: Refuse to build codes whose codewords would not fit in memory —
    #: the tell-tale of paper-strict constants reaching execution paths.
    MAX_MATERIALIZED_LENGTH = 1 << 27

    def __init__(
        self,
        input_bits: int,
        k: int,
        c: int,
        seed: int = 0,
        length: int | None = None,
    ) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if c < 3:
            raise ConfigurationError(
                f"c must be >= 3 (beep codes are vacuous for c <= 2), got {c}"
            )
        if length is None:
            length = c * c * k * input_bits
        if length % (c * k) != 0:
            raise ConfigurationError(
                f"length {length} must be divisible by c*k = {c * k} so the "
                "codeword weight delta*b/k is an integer (Definition 3)"
            )
        if length > self.MAX_MATERIALIZED_LENGTH:
            raise ConfigurationError(
                f"beep code length {length} exceeds the materialisation "
                f"limit {self.MAX_MATERIALIZED_LENGTH}; this typically means "
                "paper-strict constants were used for execution - they are "
                "for analysis only (use practical presets to run, see "
                "docs/ARCHITECTURE.md, 'Practical constants')"
            )
        super().__init__(input_bits, length)
        self._k = k
        self._c = c
        self._seed = seed

    @property
    def k(self) -> int:
        """Superimposition size the code targets."""
        return self._k

    @property
    def c(self) -> int:
        """Inverse density parameter ``c`` (so ``δ = 1/c``)."""
        return self._c

    @property
    def delta(self) -> float:
        """Code density ``δ = 1/c``."""
        return 1.0 / self._c

    @property
    def weight(self) -> int:
        """Codeword weight ``δb/k = b/(ck)`` — every codeword has exactly
        this many ones (first property of Definition 3)."""
        return self.length // (self._c * self._k)

    @property
    def intersection_threshold(self) -> int:
        """The decodability threshold ``5δ²b/k = 5b/(c²k)`` of Definition 3.

        At the theorem's length ``b = c²ka`` this is exactly ``5a``.
        """
        return (5 * self.length) // (self._c * self._c * self._k)

    @property
    def seed(self) -> int:
        """The seed keying this code."""
        return self._seed

    def encode_int(self, value: int) -> BitString:
        """Return ``C(value)``: a uniform constant-weight string keyed by input."""
        self._check_value(value)
        rng = derive_rng(self._seed, "beep-code", self.length, self.weight, value)
        return bitstrings.random_constant_weight(rng, self.length, self.weight)

    def encode_positions(self, values: Sequence[int]) -> np.ndarray:
        """The ascending one-positions of ``C(v)`` for every ``v`` in ``values``.

        Returns a ``(len(values), weight)`` int64 array whose row ``i``
        equals ``np.flatnonzero(self.encode_int(values[i]))``, computed for
        all values in one vectorised pass over :meth:`encode_int`'s exact
        stream (:func:`repro.codes.encode_batch`: the Philox blocks, then
        :func:`~repro.rng_philox.floyd_choices`).  The rows that pass
        cannot reproduce — a rejected Lemire draw, or a code in numpy's
        tail-shuffle branch — come from :meth:`encode_int`.
        """
        [positions] = encode_batch([(self, values)])
        return positions

    def _streams(self, values: list[int]) -> Streams:
        """Floyd's stage over each value's first
        :func:`~repro.rng_philox.choice_blocks` blocks (none in the
        tail-shuffle branch); the rows it cannot reproduce come from
        :meth:`encode_int`."""

        def positions(blocks: np.ndarray) -> np.ndarray:
            rows, exact = floyd_choices(blocks, self.length, self.weight)
            for row in np.flatnonzero(~exact):
                rows[row] = np.flatnonzero(self.encode_int(values[row]))
            return rows

        group = (
            self._seed,
            ("beep-code", self.length, self.weight),
            values,
            choice_blocks(self.length, self.weight),
        )
        return group, positions

    def noiseless_membership_test(self, value: int, heard: BitString) -> bool:
        """Whether codeword ``value`` is consistent with a noiseless
        superimposition ``heard``: every one of ``C(value)`` appears in
        ``heard``."""
        self._check_word(heard)
        word = self.encode_int(value)
        return bitstrings.intersection_weight(word, bitstrings.complement(heard)) == 0

    def membership_statistic(self, value: int, heard: BitString) -> int:
        """The Lemma 9 test statistic: ``1(C(value) ∧ ¬heard)``.

        The number of positions where the codeword has a one but the heard
        string does not.  Small values indicate the codeword is present in
        the (possibly noisy) superimposition.
        """
        self._check_word(heard)
        word = self.encode_int(value)
        return bitstrings.intersection_weight(word, bitstrings.complement(heard))

    def decoding_threshold(self, eps: float) -> int:
        """The acceptance threshold of Lemma 9: ``(2ε+1)/4 · weight``.

        A candidate ``r`` is decoded as present iff its membership statistic
        is strictly below this threshold.  At ``ε = 0`` the threshold is a
        quarter of the codeword weight, which also subsumes the noiseless
        test (true codewords have statistic 0, absent ones at least
        ``weight - intersection_threshold``).
        """
        if not 0.0 <= eps < 0.5:
            raise ConfigurationError(f"eps must be in [0, 1/2), got {eps}")
        return math.floor((2.0 * eps + 1.0) / 4.0 * self.weight)

    def decode_superimposition(
        self,
        heard: BitString,
        eps: float = 0.0,
        candidates: Iterable[int] | None = None,
    ) -> set[int]:
        """Decode the set of codeword inputs present in ``heard``.

        Implements the paper's Section 4 rule: include every candidate ``r``
        whose codeword does **not** ``(2ε+1)/4 · c²γlog n``-intersect
        ``¬heard``.  ``candidates`` defaults to the full domain
        (exponential; use explicit candidate sets at scale — the
        accept/reject test per candidate is identical either way).
        """
        self._check_word(heard)
        if candidates is None:
            candidates = range(self.num_codewords)
        threshold = self.decoding_threshold(eps)
        not_heard = bitstrings.complement(heard)
        decoded: set[int] = set()
        for value in candidates:
            word = self.encode_int(value)
            if bitstrings.intersection_weight(word, not_heard) < threshold:
                decoded.add(value)
        return decoded

    def failure_fraction_bound(self) -> float:
        """Definition 3's bound on the fraction of size-k subsets whose
        superimposition intersects another codeword: ``2^{-2a}``."""
        return 2.0 ** (-2 * self.input_bits)

    def count_bad_subsets(
        self, subsets: Sequence[Sequence[int]], others: Sequence[int] | None = None
    ) -> int:
        """Count how many of the given size-k subsets are *bad*: their
        superimposition ``5δ²b/k``-intersects some codeword outside the
        subset.

        ``others`` restricts which outside codewords are checked (defaults
        to the full domain; exponential in ``a``, and encoded into one
        ``(len(others), b)`` matrix).  Used by the E2 experiment to measure
        the Definition 3 fraction empirically.
        """
        domain = list(range(self.num_codewords) if others is None else others)
        # Encode the domain once; each subset is then one exact count
        # product (float64 sums of 0/1 are exact far beyond any b).
        words = self.encode_many(domain).astype(np.float64)
        threshold = self.intersection_threshold
        bad = 0
        for subset in subsets:
            if len(subset) != self._k:
                raise ConfigurationError(
                    f"subset size {len(subset)} != k = {self._k}"
                )
            union = bitstrings.superimpose(
                [self.encode_int(value) for value in subset]
            )
            overlaps = words @ union.astype(np.float64)
            members = set(subset)
            outside = [value not in members for value in domain]
            if np.any(overlaps[outside] >= threshold):
                bad += 1
        return bad

    def encode_many(self, values: Sequence[int]) -> np.ndarray:
        """Stack codewords for ``values`` into a ``(len(values), b)`` matrix."""
        if not values:
            return np.zeros((0, self.length), dtype=bool)
        return np.stack([self.encode_int(value) for value in values])

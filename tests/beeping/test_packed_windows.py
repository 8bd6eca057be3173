"""Packed flip windows equal the boolean float-compare windows, bit for bit.

``WindowedNoise.flip_block`` returns packed ``uint64`` words cut from
windows stored packed and drawn by comparing raw Philox words against an
integer threshold.  ``tests/beeping/window_oracle.py`` keeps the boolean
generator those windows replaced; every test here holds the words to
``pack_rows`` of the oracle's block, or pins the cache the words live in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.beeping.noise import (
    AdversarialNoise,
    BernoulliNoise,
    HeterogeneousNoise,
    _raw_threshold,
    unreliable_zone,
)
from repro.packing import pack_rows

from tests.beeping import window_oracle as oracle

_WINDOW = oracle.WINDOW

#: Rates around the float-compare boundaries: powers of two, small
#: multiples of 2**-53 (the grid ``random()`` lives on), their float
#: neighbours, the smallest rates and the largest rate below 1/2.
_SPECIAL = (
    [2.0**-k for k in (2, 3, 10, 31, 52, 53, 60)]
    + [k * 2.0**-53 for k in (1, 2, 3, 1000, 2**40 + 1)]
    + [1e-300, 5e-324, 0.5 - 2.0**-54]
)
_RATES = sorted(
    {
        float(eps)
        for base in _SPECIAL
        for eps in (base, np.nextafter(base, 0.0), np.nextafter(base, 1.0))
    }
    - {0.0, 0.5}
)

#: Spans of every shape: empty, one round, either side of a word, a
#: window minus one, a window plus one, and more than two windows.
_ROUNDS = (0, 1, 63, 64, 65, 4095, 4097, 9000)

#: Word-aligned starts, unaligned starts, and starts just before a
#: window boundary (the spans from them straddle it).
_STARTS = (0, 64, 3 * 64 + _WINDOW, 5, 4000, _WINDOW - 1, 2 * _WINDOW - 33)


def _channels(n: int):
    """One channel of each windowed type, named for the test ids."""
    vector = np.linspace(0.0, 0.45, n)
    vector[::3] = 0.0  # ε_v = 0 never flips
    return {
        "bernoulli": BernoulliNoise(0.02, 3),
        "zone": unreliable_zone(n, frac=0.25, eps_hot=0.4, eps_cold=0.0, seed=3),
        "heterogeneous": HeterogeneousNoise(vector, seed=4),
        "adversarial": AdversarialNoise(0.05, 3),
    }


def _assert_oracle(channel, start: int, rounds: int, n: int) -> np.ndarray:
    """``flip_block`` is ``pack_rows`` of the oracle's block, pad bits zero."""
    words = channel.flip_block(start, rounds, n)
    expected = pack_rows(oracle.flip_block(channel, start, rounds, n))
    assert words.dtype == np.dtype("<u8")
    assert words.shape == expected.shape == (n, (rounds + 63) // 64)
    assert np.array_equal(words, expected), (start, rounds, n)
    tail = rounds % 64
    if tail:
        assert not np.any(words[:, -1] >> np.uint64(tail)), "pad bits set"
    return words


class TestThresholdIdentity:
    """``x < threshold`` exactly when ``random()``'s float is below ε."""

    @pytest.mark.parametrize("eps", _RATES + [0.0])
    def test_words_around_the_threshold(self, eps):
        threshold = int(_raw_threshold(eps))
        candidates = {0, 2**64 - 1}
        for step in (-2049, -2048, -1, 0, 1, 2047, 2048):
            if 0 <= threshold + step < 2**64:
                candidates.add(threshold + step)
        words = np.array(sorted(candidates), dtype=np.uint64)
        # numpy's Philox ``random()``: (x >> 11) * 2**-53.
        floats = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert np.array_equal(words < _raw_threshold(eps), floats < eps)


class TestFlipBlockEqualsOracle:
    @pytest.mark.parametrize("eps", _RATES)
    def test_bernoulli_rates(self, eps):
        channel = BernoulliNoise(eps, 11)
        for start, rounds in ((0, 4097), (_WINDOW - 70, 200)):
            _assert_oracle(channel, start, rounds, 6)

    @pytest.mark.parametrize("eps", _RATES)
    def test_heterogeneous_rates(self, eps):
        vector = np.array([0.0, eps, 0.3, eps])
        _assert_oracle(HeterogeneousNoise(vector, seed=5), 4000, 200, 4)

    @pytest.mark.parametrize("rounds", _ROUNDS)
    @pytest.mark.parametrize(
        "which", ["bernoulli", "zone", "heterogeneous", "adversarial"]
    )
    def test_spans(self, which, rounds):
        n = 7
        channel = _channels(n)[which]
        for start in _STARTS:
            _assert_oracle(channel, start, rounds, n)

    @pytest.mark.parametrize("n", [0, 1, 64, 65])
    def test_widths(self, n):
        for channel in _channels(max(n, 1)).values():
            if isinstance(channel, HeterogeneousNoise) and n != channel.num_nodes:
                continue
            _assert_oracle(channel, _WINDOW - 100, 300, n)

    def test_zero_rate_nodes_never_flip(self):
        words = _channels(7)["heterogeneous"].flip_block(0, 9000, 7)
        assert not words[::3].any()
        assert words[1:3].any()


class TestFlipBlockIsolation:
    @pytest.mark.parametrize(
        "start,rounds", [(0, 64), (0, 4096), (64, 128), (5, 100), (4090, 20)]
    )
    @pytest.mark.parametrize("which", ["bernoulli", "adversarial"])
    def test_writing_the_result_leaves_the_next_call(self, which, start, rounds):
        channel = _channels(5)[which]
        first = channel.flip_block(start, rounds, 5)
        expected = first.copy()
        first ^= np.uint64(2**64 - 1)
        assert np.array_equal(channel.flip_block(start, rounds, 5), expected)

    def test_cached_windows_are_read_only(self):
        channel = BernoulliNoise(0.1, 2)
        channel.flip_block(0, 64, 4)
        for key in list(channel._window_cache):
            assert not channel._window_cache.get(key).flags.writeable


class TestWindowCache:
    @pytest.mark.parametrize(
        "start,rounds", [(0, 4096), (4000, 96), (4090, 6), (4031, 65)]
    )
    def test_span_ending_at_round_4095_generates_no_window_1(self, start, rounds):
        channel = BernoulliNoise(0.2, 6)
        _assert_oracle(channel, start, rounds, 9)
        assert list(channel._window_cache) == [(0, 9)]

    def test_only_covered_windows_are_generated(self):
        channel = AdversarialNoise(0.1, 6)
        channel.flip_block(_WINDOW + 5, 2 * _WINDOW - 10, 9)
        assert list(channel._window_cache) == [(1, 9), (2, 9)]

    def test_three_window_span_caches_packed_bytes(self):
        n = 512
        channel = BernoulliNoise(0.02, 8)
        channel.flip_block(_WINDOW - 64, _WINDOW + 128, n)
        assert len(channel._window_cache) == 3
        resident = sum(
            channel._window_cache.get(key).nbytes
            for key in list(channel._window_cache)
        )
        assert resident == 3 * n * 512

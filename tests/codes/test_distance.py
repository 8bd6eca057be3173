"""Tests for (a, δ)-distance codes (Definition 5, Lemma 6)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import bitstrings as bs
from repro.codes import DistanceCode, minimum_pairwise_distance, paper_c_delta
from repro.errors import ConfigurationError


class TestConstruction:
    def test_default_length_is_paper_strict(self):
        code = DistanceCode(input_bits=5, delta=1.0 / 3.0)
        assert code.length == math.ceil(paper_c_delta(1.0 / 3.0) * 5)

    def test_explicit_length(self):
        code = DistanceCode(input_bits=5, delta=0.25, length=64)
        assert code.length == 64

    def test_bad_delta_rejected(self):
        for delta in [0.0, 0.5, 0.7, -0.1]:
            with pytest.raises(ConfigurationError):
                DistanceCode(input_bits=4, delta=delta)

    def test_paper_c_delta_formula(self):
        assert paper_c_delta(1.0 / 3.0) == pytest.approx(108.0)
        with pytest.raises(ConfigurationError):
            paper_c_delta(0.5)

    def test_min_distance_property(self):
        code = DistanceCode(input_bits=4, delta=1.0 / 3.0, length=90)
        assert code.min_distance == 30


class TestEncoding:
    def test_deterministic_across_instances(self):
        a = DistanceCode(4, 1.0 / 3.0, length=60, seed=9)
        b = DistanceCode(4, 1.0 / 3.0, length=60, seed=9)
        for m in range(16):
            assert np.array_equal(a.encode_int(m), b.encode_int(m))

    def test_seed_changes_code(self):
        a = DistanceCode(4, 1.0 / 3.0, length=60, seed=1)
        b = DistanceCode(4, 1.0 / 3.0, length=60, seed=2)
        assert any(
            not np.array_equal(a.encode_int(m), b.encode_int(m)) for m in range(16)
        )

    def test_encode_bits_matches_encode_int(self):
        code = DistanceCode(6, 0.3, length=80, seed=3)
        assert np.array_equal(
            code.encode(bs.from_int(37, 6)), code.encode_int(37)
        )

    def test_out_of_domain_rejected(self):
        code = DistanceCode(4, 0.3, length=40)
        with pytest.raises(ConfigurationError):
            code.encode_int(16)
        with pytest.raises(ConfigurationError):
            code.encode_int(-1)

    def test_codeword_copies_are_independent(self):
        code = DistanceCode(4, 0.3, length=40)
        word = code.encode_int(3)
        word[:] = False
        assert np.array_equal(code.encode_int(3), code.encode_int(3))
        assert code.encode_int(3).any()


class TestMinimumDistance:
    def test_paper_length_achieves_delta(self):
        # Lemma 6 at a = 6, delta = 1/3: failure prob <= 2^-12.
        code = DistanceCode(input_bits=6, delta=1.0 / 3.0, seed=0)
        assert minimum_pairwise_distance(code) >= code.min_distance

    def test_measured_on_subset(self):
        code = DistanceCode(input_bits=10, delta=0.25, length=200, seed=0)
        measured = minimum_pairwise_distance(code, messages=list(range(32)))
        assert measured > 0

    def test_needs_two_codewords(self):
        code = DistanceCode(input_bits=4, delta=0.25, length=40)
        with pytest.raises(ConfigurationError):
            minimum_pairwise_distance(code, messages=[3])


class TestNearestDecoding:
    def test_exact_codeword_decodes_to_itself(self):
        code = DistanceCode(input_bits=5, delta=1.0 / 3.0, seed=4)
        for m in [0, 7, 31]:
            decoded, distance = code.decode_nearest(code.encode_int(m))
            assert decoded == m
            assert distance == 0

    def test_decoding_with_candidates(self):
        code = DistanceCode(input_bits=8, delta=1.0 / 3.0, seed=4)
        word = code.encode_int(200)
        decoded, _ = code.decode_nearest(word, candidates=[3, 200, 77])
        assert decoded == 200

    def test_corrupted_codeword_still_decodes(self):
        code = DistanceCode(input_bits=5, delta=1.0 / 3.0, seed=4)
        word = code.encode_int(12)
        # flip fewer than half the guaranteed distance
        budget = code.min_distance // 2 - 1
        word[:budget] = ~word[:budget]
        decoded, _ = code.decode_nearest(word)
        assert decoded == 12

    def test_empty_candidates_rejected(self):
        code = DistanceCode(input_bits=4, delta=0.3, length=40)
        with pytest.raises(ConfigurationError):
            code.decode_nearest(code.encode_int(0), candidates=[])

    def test_wrong_length_rejected(self):
        code = DistanceCode(input_bits=4, delta=0.3, length=40)
        with pytest.raises(ConfigurationError):
            code.decode_nearest(np.zeros(41, dtype=bool))

    @settings(max_examples=20)
    @given(st.integers(0, 31), st.integers(0, 2**31 - 1))
    def test_noise_below_half_distance_property(self, message, noise_seed):
        code = DistanceCode(input_bits=5, delta=1.0 / 3.0, seed=1)
        word = code.encode_int(message)
        rng = np.random.default_rng(noise_seed)
        budget = (code.min_distance - 1) // 2
        positions = rng.choice(code.length, size=budget, replace=False)
        word[positions] = ~word[positions]
        decoded, _ = code.decode_nearest(word)
        assert decoded == message

    def test_failure_bound_small_for_strict_length(self):
        code = DistanceCode(input_bits=6, delta=1.0 / 3.0)
        assert code.failure_probability_bound() <= 2.0**-12

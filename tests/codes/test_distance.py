"""Tests for (a, δ)-distance codes (Definition 5, Lemma 6)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import bitstrings as bs
from repro.codes import (
    BeepCode,
    DistanceCode,
    KautzSingletonCode,
    encode_batch,
    minimum_pairwise_distance,
    paper_c_delta,
)
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


@st.composite
def codes_and_values(draw):
    """A distance code keyed by a seed of any sign and size the key
    derivation takes, of length 1-700 and input width 1-100 bits, with
    values (duplicates included) spread over its whole domain."""
    seed = draw(
        st.one_of(
            st.integers(-(2**126), -1),
            st.integers(0, 2**63 - 1),
            st.integers(2**63, 2**126),
        )
    )
    length = draw(st.integers(1, 700))
    input_bits = draw(st.integers(1, 100))
    code = DistanceCode(input_bits, 1.0 / 3.0, length=length, seed=seed)
    values = draw(
        st.lists(st.integers(0, code.num_codewords - 1), min_size=1, max_size=6)
    )
    if draw(st.booleans()):
        values += values[: len(values) // 2 + 1]  # duplicates
    return code, values


class TestEncodeMany:
    """``encode_many`` is ``encode_int`` row by row, from one Philox pass."""

    @given(codes_and_values())
    @example((DistanceCode(100, 0.25, length=700, seed=-5), [2**64, 2**99 + 7, 0]))
    @example((DistanceCode(70, 0.25, length=33, seed=2**63), [2**69, 2**64 - 1]))
    @example((DistanceCode(9, 0.25, length=1, seed=0), [511, 511]))
    @example((DistanceCode(9, 0.25, length=31, seed=2**126), [4]))
    def test_equals_reference_rows(self, case):
        code, values = case
        rows = code.encode_many(values)
        assert rows.shape == (len(values), code.length)
        assert rows.dtype == bool
        for row, value in zip(rows, values):
            assert np.array_equal(row, code.encode_int(value))

    def test_empty_input(self):
        code = DistanceCode(6, 0.3, length=45, seed=1)
        rows = code.encode_many([])
        assert rows.shape == (0, 45)
        assert rows.dtype == bool

    def test_out_of_range_value_rejected(self):
        code = DistanceCode(4, 0.3, length=40)
        for bad in (16, -1):
            with pytest.raises(ConfigurationError, match="outside"):
                code.encode_many([3, bad])


class TestEncodeBatch:
    """``encode_batch`` gives each request what its code's own batched
    encoder gives, in request order, from one pass."""

    def test_mixed_requests_equal_their_own_encoders(self):
        floyd = BeepCode(input_bits=36, k=9, c=4, seed=0)  # 22803 rejects
        tail = BeepCode(input_bits=148, k=9, c=4, seed=3)  # tail shuffle
        rows = DistanceCode(36, 0.25, length=floyd.weight, seed=-2)
        wide = DistanceCode(100, 0.25, length=77, seed=2**63)
        requests = [
            (floyd, [5, 22803, 17]),
            (rows, [3, 3, 2**36 - 1]),
            (tail, [9]),
            (rows, []),
            (wide, [2**99, 0]),
        ]
        encoded = encode_batch(requests)
        assert len(encoded) == len(requests)
        for (code, values), got in zip(requests, encoded):
            if isinstance(code, BeepCode):
                want = code.encode_positions(values)
            else:
                want = code.encode_many(values)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_no_requests(self):
        assert encode_batch([]) == []

    def test_checks_values_and_codes(self):
        with pytest.raises(ConfigurationError, match="outside"):
            encode_batch([(DistanceCode(4, 0.3, length=40), [16])])
        with pytest.raises(TypeError, match="no batched encoder"):
            encode_batch([(KautzSingletonCode(4, 2), [1])])


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

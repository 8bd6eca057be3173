"""Tests for (a, k, δ)-beep codes (Definition 3, Theorem 4)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import bitstrings as bs
from repro import rng_philox
from repro.codes import BeepCode
from repro.errors import ConfigurationError
from repro.rng import derive_rng


class TestConstruction:
    def test_theorem4_length(self):
        code = BeepCode(input_bits=5, k=3, c=4)
        assert code.length == 4 * 4 * 3 * 5

    def test_weight_is_b_over_ck(self):
        code = BeepCode(input_bits=5, k=3, c=4)
        assert code.weight == code.length // (4 * 3)
        assert code.weight == 4 * 5  # c * a

    def test_intersection_threshold_is_5a(self):
        code = BeepCode(input_bits=7, k=2, c=3)
        assert code.intersection_threshold == 5 * 7

    def test_c_below_3_rejected(self):
        # Theorem 4 notes c <= 2 makes the property vacuous.
        with pytest.raises(ConfigurationError):
            BeepCode(input_bits=4, k=2, c=2)

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigurationError):
            BeepCode(input_bits=4, k=0, c=3)

    def test_custom_length_divisibility(self):
        BeepCode(input_bits=4, k=2, c=3, length=120)
        with pytest.raises(ConfigurationError):
            BeepCode(input_bits=4, k=2, c=3, length=121)

    def test_delta_property(self):
        assert BeepCode(input_bits=4, k=2, c=4).delta == 0.25


class TestEncoding:
    def test_constant_weight_everywhere(self):
        code = BeepCode(input_bits=6, k=2, c=3, seed=2)
        for value in range(0, 64, 7):
            assert bs.weight(code.encode_int(value)) == code.weight

    def test_deterministic_across_instances(self):
        a = BeepCode(input_bits=5, k=2, c=3, seed=11)
        b = BeepCode(input_bits=5, k=2, c=3, seed=11)
        for value in range(32):
            assert np.array_equal(a.encode_int(value), b.encode_int(value))

    def test_out_of_domain_rejected(self):
        code = BeepCode(input_bits=4, k=2, c=3)
        with pytest.raises(ConfigurationError):
            code.encode_int(16)

    def test_encode_many_shape(self):
        code = BeepCode(input_bits=4, k=2, c=3)
        matrix = code.encode_many([1, 5, 9])
        assert matrix.shape == (3, code.length)
        assert np.array_equal(matrix[1], code.encode_int(5))

    def test_encode_many_empty(self):
        code = BeepCode(input_bits=4, k=2, c=3)
        assert code.encode_many([]).shape == (0, code.length)


@st.composite
def codes_and_values(draw):
    """A beep code in one of numpy's three ``choice`` regimes, a lane
    chunk of 1-4 streams, and a value list around that chunk."""
    regime = draw(st.sampled_from(["small", "large-floyd", "large-tail"]))
    if regime == "small":  # b <= 10000: always Floyd
        c = draw(st.integers(3, 6))
        k = draw(st.integers(1, 8))
        weight = draw(st.integers(1, 60))
    else:  # b > 10000: Floyd iff w <= b // 50, i.e. iff c * k >= 50
        c = draw(st.integers(3, 8))
        if regime == "large-floyd":
            k = draw(st.integers(-(-50 // c), 20))
        else:
            k = draw(st.integers(1, 49 // c))
        weight = 10000 // (c * k) + draw(st.integers(1, 30))
    length = c * k * weight
    assert (length > 10000) == (regime != "small")
    assert (regime == "large-tail") == (length > 10000 and weight > length // 50)
    input_bits = draw(st.integers(1, 40))
    code = BeepCode(
        input_bits=input_bits,
        k=k,
        c=c,
        seed=draw(st.integers(0, 2**31)),
        length=length,
    )
    lanes = draw(st.integers(1, 4))
    count = draw(st.integers(0, 3 * lanes + 1))
    values = draw(
        st.lists(
            st.integers(0, code.num_codewords - 1), min_size=count, max_size=count
        )
    )
    if draw(st.booleans()):
        values += values[: len(values) // 2]  # duplicates
    return code, lanes, values


class TestEncodePositions:
    """``encode_positions`` is ``flatnonzero(encode_int(v))``, row by row."""

    @given(codes_and_values())
    def test_equals_reference_rows(self, case):
        code, lanes, values = case
        with mock.patch.object(rng_philox, "_LANE_DRAWS", lanes * code.weight):
            positions = code.encode_positions(values)
        assert positions.shape == (len(values), code.weight)
        assert positions.dtype == np.int64
        for row, value in zip(positions, values):
            assert np.array_equal(row, np.flatnonzero(code.encode_int(value)))

    def test_forced_rejection_lane_falls_back_once(self, monkeypatch):
        """At value 22803 one of Floyd's Lemire draws rejects and takes an
        extra word, so only the reference generator gets this row right."""
        code = BeepCode(input_bits=36, k=9, c=4, seed=0)
        reference = np.flatnonzero(code.encode_int(22803))
        b, w = code.length, code.weight
        [blocks] = rng_philox.keyed_blocks(
            [(0, ("beep-code", b, w), [22803], rng_philox.choice_blocks(b, w))]
        )
        _, exact = rng_philox.floyd_choices(blocks, b, w)
        assert not exact[0]
        calls = []
        original = code.encode_int

        def counting(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(code, "encode_int", counting)
        positions = code.encode_positions([5, 22803, 17])
        assert calls == [22803]
        assert np.array_equal(positions[1], reference)
        assert np.array_equal(positions[0], np.flatnonzero(original(5)))

    def test_tail_shuffle_codes_use_the_reference(self, monkeypatch):
        # b = 21312, w = 592 > b // 50: numpy shuffles a tail instead of
        # running Floyd, so every row comes from encode_int.
        code = BeepCode(input_bits=148, k=9, c=4, seed=3)
        assert code.length == 21312 and code.weight > code.length // 50
        calls = []
        original = code.encode_int
        monkeypatch.setattr(
            code, "encode_int", lambda value: calls.append(value) or original(value)
        )
        positions = code.encode_positions([1, 2])
        assert calls == [1, 2]
        assert np.array_equal(positions[1], np.flatnonzero(original(2)))

    @pytest.mark.parametrize(
        "c, k, length, floyd",
        [
            (4, 5, 10000, True),  # b = 10000 is not > 10000
            (5, 10, 10050, True),  # w = 201 = b // 50 is not > b // 50
            (7, 7, 10045, False),  # w = 205 > b // 50 = 200
        ],
    )
    def test_branch_boundary(self, monkeypatch, c, k, length, floyd):
        """Exactly numpy's Floyd codes take the batched path."""
        code = BeepCode(input_bits=12, k=k, c=c, seed=1, length=length)
        values = [0, 7, 4095]
        calls = []
        original = code.encode_int
        monkeypatch.setattr(
            code, "encode_int", lambda value: calls.append(value) or original(value)
        )
        positions = code.encode_positions(values)
        assert calls == ([] if floyd else values)
        for row, value in zip(positions, values):
            assert np.array_equal(row, np.flatnonzero(original(value)))

    def test_empty_and_out_of_domain(self):
        code = BeepCode(input_bits=4, k=2, c=3)
        assert code.encode_positions([]).shape == (0, code.weight)
        with pytest.raises(ConfigurationError):
            code.encode_positions([3, 16])


class TestSuperimpositionDecoding:
    def test_noiseless_decode_recovers_sets(self):
        code = BeepCode(input_bits=6, k=3, c=4, seed=1)
        rng = derive_rng(0, "subset")
        for _ in range(10):
            subset = sorted(
                int(v) for v in rng.choice(code.num_codewords, size=3, replace=False)
            )
            union = bs.superimpose([code.encode_int(v) for v in subset])
            decoded = code.decode_superimposition(union, eps=0.0)
            assert decoded == set(subset)

    def test_membership_statistic_zero_for_members(self):
        code = BeepCode(input_bits=5, k=2, c=3, seed=1)
        union = bs.superimpose([code.encode_int(v) for v in (3, 17)])
        assert code.membership_statistic(3, union) == 0
        assert code.membership_statistic(17, union) == 0

    def test_membership_statistic_large_for_nonmembers(self):
        code = BeepCode(input_bits=6, k=2, c=4, seed=1)
        union = bs.superimpose([code.encode_int(v) for v in (3, 17)])
        threshold = code.decoding_threshold(0.0)
        for outsider in (5, 42, 60):
            assert code.membership_statistic(outsider, union) >= threshold

    def test_noiseless_membership_test(self):
        code = BeepCode(input_bits=5, k=2, c=3, seed=1)
        union = bs.superimpose([code.encode_int(v) for v in (1, 2)])
        assert code.noiseless_membership_test(1, union)
        assert not code.noiseless_membership_test(9, union)

    def test_decoding_threshold_formula(self):
        code = BeepCode(input_bits=5, k=2, c=4, seed=1)
        # (2*eps+1)/4 * weight
        assert code.decoding_threshold(0.0) == code.weight // 4
        assert code.decoding_threshold(0.3) == int(1.6 / 4 * code.weight)
        with pytest.raises(ConfigurationError):
            code.decoding_threshold(0.5)

    def test_decode_with_candidates_restricts_scan(self):
        code = BeepCode(input_bits=6, k=2, c=4, seed=2)
        union = bs.superimpose([code.encode_int(v) for v in (10, 20)])
        decoded = code.decode_superimposition(union, candidates=[10, 30])
        assert decoded == {10}

    def test_noisy_decode_recovers_sets_whp(self):
        """Decoding under noise is a w.h.p. guarantee, not a certainty:
        measure the success rate over many independent trials instead of
        asserting every seed (a rare tail failure is expected behaviour)."""
        code = BeepCode(input_bits=6, k=3, c=6, seed=3)
        eps = 0.1
        successes = 0
        trials = 40
        for trial_seed in range(trials):
            rng = np.random.default_rng(trial_seed)
            subset = sorted(
                int(v)
                for v in rng.choice(code.num_codewords, size=3, replace=False)
            )
            union = bs.superimpose([code.encode_int(v) for v in subset])
            noisy = union ^ (rng.random(code.length) < eps)
            decoded = code.decode_superimposition(noisy, eps=eps)
            successes += decoded == set(subset)
        assert successes >= trials - 2

    def test_wrong_length_rejected(self):
        code = BeepCode(input_bits=4, k=2, c=3)
        with pytest.raises(ConfigurationError):
            code.decode_superimposition(np.zeros(7, dtype=bool))


class TestBadSubsetCensus:
    def test_count_bad_subsets_zero_for_good_code(self):
        code = BeepCode(input_bits=6, k=2, c=4, seed=0)
        rng = derive_rng(1, "census")
        subsets = [
            [int(v) for v in rng.choice(64, size=2, replace=False)]
            for _ in range(20)
        ]
        assert code.count_bad_subsets(subsets) == 0

    def test_count_matches_per_codeword_scan(self):
        # w = 4 and threshold 3: some unions 3-intersect another codeword.
        code = BeepCode(input_bits=6, k=2, c=6, seed=4, length=48)
        assert code.intersection_threshold == 3
        rng = derive_rng(2, "census")
        subsets = [
            [int(v) for v in rng.choice(64, size=2, replace=False)]
            for _ in range(30)
        ]
        # Members and duplicates in ``others`` are never "other" codewords.
        others = [0, 0, 5, 9, 17, 33, 60, *subsets[0]]

        def scan(subset, domain):
            union = bs.superimpose([code.encode_int(v) for v in subset])
            return any(
                bs.d_intersects(code.encode_int(v), union, 3)
                for v in domain
                if v not in subset
            )

        for domain, restrict in ((range(64), None), (others, others)):
            expected = sum(scan(subset, domain) for subset in subsets)
            assert 0 < expected < len(subsets)
            assert code.count_bad_subsets(subsets, others=restrict) == expected

    def test_wrong_subset_size_rejected(self):
        code = BeepCode(input_bits=4, k=2, c=3)
        with pytest.raises(ConfigurationError):
            code.count_bad_subsets([[1, 2, 3]])

    def test_failure_fraction_bound(self):
        code = BeepCode(input_bits=6, k=2, c=3)
        assert code.failure_fraction_bound() == 2.0**-12

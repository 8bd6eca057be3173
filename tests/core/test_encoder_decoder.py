"""Tests for the Algorithm 1 reference encoder and the Section 4 decoders.

The encoder is the row-by-row reference the session oracle of
``reference_round.py`` runs; the decoders are public in
:mod:`repro.core.decoder`.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_round import build_phase_schedules
from repro import bitstrings as bs
from repro.codes import BeepCode, CombinedCode, DistanceCode
from repro.core import phase1_decode, phase2_decode
from repro.core.decoder import DecodedMessage
from repro.errors import ConfigurationError


def make_codes(seed: int = 0) -> CombinedCode:
    beep = BeepCode(input_bits=6, k=3, c=4, seed=seed)
    distance = DistanceCode(
        input_bits=5, delta=1.0 / 3.0, length=beep.weight, seed=seed
    )
    return CombinedCode(beep_code=beep, distance_code=distance)


class TestEncoder:
    def test_schedule_shapes(self):
        codes = make_codes()
        p1, p2 = build_phase_schedules(codes, [1, 2, 3], [4, 5, 6])
        assert p1.shape == (3, codes.length)
        assert p2.shape == (3, codes.length)

    def test_phase1_rows_are_beep_codewords(self):
        codes = make_codes()
        p1, _ = build_phase_schedules(codes, [7, 9], [1, 2])
        assert np.array_equal(p1[0], codes.beep_code.encode_int(7))
        assert np.array_equal(p1[1], codes.beep_code.encode_int(9))

    def test_phase2_rows_are_combined_codewords(self):
        codes = make_codes()
        _, p2 = build_phase_schedules(codes, [7, 9], [1, 2])
        assert np.array_equal(p2[0], codes.encode(7, 1))

    def test_silent_nodes_all_zero(self):
        codes = make_codes()
        p1, p2 = build_phase_schedules(codes, [7, 9], [None, 2])
        assert not p1[0].any()
        assert not p2[0].any()
        assert p1[1].any()

    def test_length_mismatch_rejected(self):
        codes = make_codes()
        with pytest.raises(ConfigurationError):
            build_phase_schedules(codes, [1, 2], [3])


class TestPhase1Decode:
    def test_recovers_sets_noiseless(self):
        codes = make_codes(seed=1)
        beep = codes.beep_code
        members = [3, 17, 40]
        union = bs.superimpose([beep.encode_int(v) for v in members])
        heard = np.stack([union, beep.encode_int(3)])
        decoded = phase1_decode(beep, heard, list(range(64)), eps=0.0)
        assert decoded[0] == set(members)
        assert decoded[1] == {3}

    def test_matches_scalar_decoder(self):
        """The vectorised decoder equals BeepCode.decode_superimposition."""
        codes = make_codes(seed=2)
        beep = codes.beep_code
        rng = np.random.default_rng(5)
        union = bs.superimpose(
            [beep.encode_int(int(v)) for v in rng.choice(64, 3, replace=False)]
        )
        noisy = union ^ (rng.random(beep.length) < 0.1)
        candidates = list(range(64))
        vectorised = phase1_decode(beep, noisy[None, :], candidates, eps=0.1)[0]
        scalar = beep.decode_superimposition(noisy, eps=0.1, candidates=candidates)
        assert vectorised == scalar

    def test_empty_candidates(self):
        codes = make_codes()
        heard = np.zeros((2, codes.length), dtype=bool)
        assert phase1_decode(codes.beep_code, heard, [], eps=0.0) == [set(), set()]

    def test_wrong_width_rejected(self):
        codes = make_codes()
        with pytest.raises(ConfigurationError):
            phase1_decode(
                codes.beep_code, np.zeros((2, 5), dtype=bool), [1], eps=0.0
            )


class TestPhase2Decode:
    def test_single_sender_roundtrip(self):
        codes = make_codes(seed=3)
        word = codes.encode(12, 19)
        heard = word[None, :]
        result = phase2_decode(codes, heard, [{12}], list(range(32)))
        assert result[0][12].message == 19
        assert result[0][12].distance == 0

    def test_two_senders_roundtrip(self):
        codes = make_codes(seed=3)
        word = codes.encode(12, 19) | codes.encode(44, 7)
        result = phase2_decode(codes, word[None, :], [{12, 44}], list(range(32)))
        assert result[0][12].message == 19
        assert result[0][44].message == 7

    def test_margin_reported(self):
        codes = make_codes(seed=3)
        word = codes.encode(5, 3)
        result = phase2_decode(codes, word[None, :], [{5}], [3, 9])
        assert isinstance(result[0][5], DecodedMessage)
        assert result[0][5].margin > 0

    def test_tie_breaks_to_smaller_message(self):
        codes = make_codes(seed=3)
        heard = np.zeros((1, codes.length), dtype=bool)
        # candidates with identical codewords are impossible, but equal
        # distance ties can occur; craft one with a single candidate pair
        # by decoding pure noise and checking determinism instead
        a = phase2_decode(codes, heard, [{5}], [9, 3])
        b = phase2_decode(codes, heard, [{5}], [3, 9])
        assert a[0][5].message == b[0][5].message

    def test_mismatched_accepted_length_rejected(self):
        codes = make_codes()
        with pytest.raises(ConfigurationError):
            phase2_decode(
                codes, np.zeros((2, codes.length), dtype=bool), [set()], [1]
            )

    def test_empty_message_candidates_rejected(self):
        codes = make_codes()
        with pytest.raises(ConfigurationError):
            phase2_decode(
                codes, np.zeros((1, codes.length), dtype=bool), [set()], []
            )

    def test_noise_tolerated(self):
        codes = make_codes(seed=4)
        rng = np.random.default_rng(8)
        word = codes.encode(12, 19) | codes.encode(44, 7)
        noisy = word ^ (rng.random(codes.length) < 0.08)
        result = phase2_decode(codes, noisy[None, :], [{12, 44}], list(range(32)))
        assert result[0][12].message == 19
        assert result[0][44].message == 7

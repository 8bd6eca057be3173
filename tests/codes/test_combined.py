"""Tests for the combined code CD(r, m) (Notation 7, Figure 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import bitstrings as bs
from repro.codes import BeepCode, CombinedCode, DistanceCode
from repro.errors import ConfigurationError


def make_combined(seed: int = 0) -> CombinedCode:
    beep = BeepCode(input_bits=5, k=2, c=3, seed=seed)
    distance = DistanceCode(
        input_bits=4, delta=1.0 / 3.0, length=beep.weight, seed=seed
    )
    return CombinedCode(beep_code=beep, distance_code=distance)


class TestConstruction:
    def test_length_matches_beep_code(self):
        combined = make_combined()
        assert combined.length == combined.beep_code.length

    def test_mismatched_lengths_rejected(self):
        beep = BeepCode(input_bits=5, k=2, c=3)
        wrong = DistanceCode(input_bits=4, delta=0.3, length=beep.weight + 1)
        with pytest.raises(ConfigurationError):
            CombinedCode(beep_code=beep, distance_code=wrong)


class TestEncodeExtract:
    def test_zero_outside_slot_positions(self):
        combined = make_combined()
        word = combined.encode(7, 3)
        slots = combined.beep_code.encode_int(7)
        assert not (word & ~slots).any()

    def test_payload_written_in_order(self):
        combined = make_combined()
        word = combined.encode(9, 11)
        slots = combined.beep_code.encode_int(9)
        payload = combined.distance_code.encode_int(11)
        positions = bs.ones_positions(slots)
        assert np.array_equal(word[positions], payload)

    def test_extract_inverts_encode(self):
        combined = make_combined()
        for r, m in [(0, 0), (7, 3), (31, 15)]:
            extracted = combined.extract(combined.encode(r, m), r)
            assert np.array_equal(
                extracted, combined.distance_code.encode_int(m)
            )

    def test_extract_wrong_length_rejected(self):
        combined = make_combined()
        with pytest.raises(ConfigurationError):
            combined.extract(np.zeros(combined.length + 1, dtype=bool), 3)

    @settings(max_examples=30)
    @given(st.integers(0, 31), st.integers(0, 15))
    def test_roundtrip_property(self, r, m):
        combined = make_combined(seed=2)
        assert np.array_equal(
            combined.extract(combined.encode(r, m), r),
            combined.distance_code.encode_int(m),
        )

    def test_extraction_from_superimposition_on_private_slots(self):
        """The Lemma 10 mechanism: positions where only one codeword has a 1
        carry that sender's payload bit undisturbed."""
        combined = make_combined(seed=3)
        r1, r2 = 5, 22
        word = combined.encode(r1, 6) | combined.encode(r2, 9)
        slots1 = combined.beep_code.encode_int(r1)
        slots2 = combined.beep_code.encode_int(r2)
        private = slots1 & ~slots2
        payload1 = combined.distance_code.encode_int(6)
        positions1 = bs.ones_positions(slots1)
        for index, position in enumerate(positions1):
            if private[position]:
                assert word[position] == payload1[index]


class TestLayout:
    def test_layout_rows_align(self):
        combined = make_combined()
        lines = combined.layout(3, 5).splitlines()
        assert len(lines) == 3
        lengths = {len(line.split(": ")[1]) for line in lines}
        assert lengths == {combined.length}

    def test_layout_dots_mark_non_slots(self):
        combined = make_combined()
        spread = combined.layout(3, 5).splitlines()[1].split(": ")[1]
        slots = combined.beep_code.encode_int(3)
        for position, char in enumerate(spread):
            assert (char == ".") == (not slots[position])

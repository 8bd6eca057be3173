"""The batched Philox streams must be bit-identical to numpy's.

The array-native engine's whole bit-identity promise rests on
:class:`repro.rng_philox.NodeStreams` reproducing, draw by draw, what
the reference engine gets from ``random_bits(derive_rng(seed,
"node-local", v), bits)`` — including numpy's ``Generator.bytes``
consumption semantics (whole 32-bit words, truncation discards).  Both
it and the codeword sampler run on one Philox-4x64-10 kernel, pinned
here against ``np.random.Philox`` itself, as is the multi-group pass
that derives a round's codewords.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import derive_rng, random_bits
from repro import rng_philox
from repro.rng_philox import (
    NodeStreams,
    _philox4x64_10,
    keyed_blocks,
    words_for_bits,
)


def as_int(words: np.ndarray) -> int:
    return sum(int(word) << (64 * j) for j, word in enumerate(words))


class TestDrawEquality:
    @pytest.mark.parametrize(
        "bits", [1, 5, 8, 13, 20, 31, 32, 40, 52, 63, 64, 65, 90, 128, 130, 200]
    )
    def test_matches_reference_streams_across_widths(self, bits):
        seed, count = 1234, 7
        streams = NodeStreams(seed, count, "node-local")
        rngs = [derive_rng(seed, "node-local", v) for v in range(count)]
        patterns = [
            [0, 0, 0, 2, 5, 5, 6],
            [1, 2, 2, 2, 5],
            [0, 3, 4, 5, 6, 6, 6, 6],
        ]
        for pattern in patterns:
            drawn = streams.draw(np.array(pattern), bits)
            assert drawn.shape == (len(pattern), words_for_bits(bits))
            expected = [random_bits(rngs[v], bits) for v in pattern]
            assert [as_int(row) for row in drawn] == expected

    def test_interleaved_widths_share_one_stream(self):
        # The reference consumes one byte stream per node regardless of
        # the width of each draw; NodeStreams must track it identically.
        seed = 9
        streams = NodeStreams(seed, 3, "node-local")
        rng = derive_rng(seed, "node-local", 1)
        for bits in (20, 90, 7, 64, 130):
            [drawn] = streams.draw(np.array([1]), bits)
            assert as_int(np.atleast_1d(drawn)) == random_bits(rng, bits)

    def test_truncation_burns_whole_words(self):
        # bytes(3) consumes 4 bytes of stream: two 20-bit draws must not
        # equal the first 40 bits of one contiguous byte read.
        seed = 4
        streams = NodeStreams(seed, 1, "node-local")
        first = as_int(streams.draw(np.array([0]), 20)[0])
        second = as_int(streams.draw(np.array([0]), 20)[0])
        rng = derive_rng(seed, "node-local", 0)
        assert first == random_bits(rng, 20)
        assert second == random_bits(rng, 20)

    def test_context_selects_distinct_streams(self):
        a = NodeStreams(0, 2, "node-local")
        b = NodeStreams(0, 2, "other-context")
        assert not np.array_equal(
            a.draw(np.array([0]), 64), b.draw(np.array([0]), 64)
        )

    def test_instances_do_not_share_positions(self):
        # Equal keys, but each instance keeps its own stream positions.
        a = NodeStreams(3, 2, "node-local")
        b = NodeStreams(3, 2, "node-local")
        first_a = a.draw(np.array([0]), 64)
        assert np.array_equal(b.draw(np.array([0]), 64), first_a)

    def test_unsorted_nodes_rejected(self):
        streams = NodeStreams(0, 3, "node-local")
        with pytest.raises(ValueError):
            streams.draw(np.array([2, 0]), 8)

    def test_empty_draw(self):
        streams = NodeStreams(0, 3, "node-local")
        assert streams.draw(np.array([], dtype=np.int64), 90).shape == (0, 2)

    def test_words_for_bits_validates(self):
        with pytest.raises(ValueError):
            words_for_bits(0)
        assert words_for_bits(64) == 1
        assert words_for_bits(65) == 2


class TestPhiloxKernel:
    @pytest.mark.parametrize(
        "lanes",
        [
            1,
            37,
            rng_philox._KERNEL_CHUNK - 1,
            rng_philox._KERNEL_CHUNK,
            rng_philox._KERNEL_CHUNK + 1,
            2 * rng_philox._KERNEL_CHUNK + 5,
        ],
    )
    def test_blocks_equal_numpy_philox(self, lanes):
        """Lane ``i`` is block ``counter[i]`` of ``Philox(key=k_i)``, for
        random 128-bit keys and block counts, across kernel passes."""
        rng = np.random.default_rng(lanes)
        counters, key0, key1, expected = [], [], [], []
        remaining = lanes
        while remaining:
            blocks = min(remaining, int(rng.integers(1, 4000)))
            remaining -= blocks
            low, high = (int(word) for word in rng.integers(0, 2**64, 2, np.uint64))
            raw = np.random.Philox(key=low + (high << 64)).random_raw(4 * blocks)
            # Lanes need not walk a stream in order: shuffle the blocks.
            order = rng.permutation(blocks)
            counters.append(order + 1)
            expected.append(raw.reshape(blocks, 4)[order])
            key0 += [low] * blocks
            key1 += [high] * blocks
        got = _philox4x64_10(
            np.concatenate(counters).astype(np.uint64),
            np.array(key0, dtype=np.uint64),
            np.array(key1, dtype=np.uint64),
        )
        assert got.shape == (lanes, 4)
        assert np.array_equal(got, np.concatenate(expected))


class TestKeyedBlocks:
    #: Groups as the codes and the session send them: mixed block counts,
    #: an empty group, a group with no blocks, duplicate parts, values
    #: past 64 bits and seeds of either sign past 63 bits.
    GROUPS = [
        (7, ("beep-code", 5184, 144), [3, 2**70, 5], 18),
        (-(2**80), ("distance-code", 144), [], 5),
        (2**64 + 1, ("distance-code", 45), [0, 0, 9], 2),
        (3, ("beep-code", 21312, 592), [1, 2], 0),
        (11, ("distance-code", 700), list(range(9)), 22),
    ]

    @pytest.mark.parametrize("kernel_chunk", [7, rng_philox._KERNEL_CHUNK])
    def test_one_pass_equals_per_group_calls_and_numpy(
        self, kernel_chunk, monkeypatch
    ):
        """Group ``g``'s row ``i`` is the first ``4 · blocks`` raw words
        of ``derive_rng(seed, *context, part_i)``, and one pass over all
        groups equals one call per group, also when the groups straddle
        kernel passes."""
        monkeypatch.setattr(rng_philox, "_KERNEL_CHUNK", kernel_chunk)
        fused = keyed_blocks(self.GROUPS)
        assert len(fused) == len(self.GROUPS)
        for group, blocks in zip(self.GROUPS, fused):
            seed, context, parts, count = group
            assert blocks.shape == (len(parts), 4 * count)
            assert blocks.dtype == np.uint64
            [alone] = keyed_blocks([group])
            assert np.array_equal(blocks, alone)
            for part, row in zip(parts, blocks):
                generator = derive_rng(seed, *context, part).bit_generator
                assert np.array_equal(row, generator.random_raw(4 * count))

    def test_no_groups(self):
        assert keyed_blocks([]) == []

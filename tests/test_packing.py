"""Tests for the foundations-layer array primitives (repro.packing).

``pack_rows``/``unpack_rows`` round trips are pinned in
``tests/engine/test_backends.py``; here ``pack_columns`` is held to
``pack_rows`` of the transpose and ``sorted_unique`` to ``np.unique``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.packing import pack_columns, pack_rows, sorted_unique


class TestPackColumns:
    @pytest.mark.parametrize(
        "shape",
        [
            (0, 0), (0, 5), (5, 0), (1, 1), (7, 3), (63, 4), (64, 4),
            (65, 4), (130, 1), (4096, 33), (4096, 0),
        ],
    )
    def test_equals_pack_rows_of_the_transpose(self, shape):
        matrix = np.random.default_rng(sum(shape)).random(shape) < 0.5
        packed = pack_columns(matrix)
        expected = pack_rows(matrix.T)
        assert packed.dtype == expected.dtype
        assert np.array_equal(packed, expected)
        assert packed.shape == expected.shape

    def test_accepts_non_contiguous_input(self):
        matrix = np.random.default_rng(3).random((20, 200)) < 0.3
        view = matrix[:, ::2]
        assert np.array_equal(pack_columns(view), pack_rows(view.T))

    def test_shape_checked(self):
        with pytest.raises(ConfigurationError, match="2-D"):
            pack_columns(np.zeros(4, dtype=bool))


class TestSortedUnique:
    @pytest.mark.parametrize(
        "keys",
        [
            np.array([], dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.full(9, -3, dtype=np.int64),
            np.array([2**62, -(2**62), 0, 2**62], dtype=np.int64),
        ],
        ids=["empty", "single", "all-equal", "extremes"],
    )
    def test_equals_np_unique(self, keys):
        result = sorted_unique(keys)
        assert result.dtype == np.unique(keys).dtype
        assert np.array_equal(result, np.unique(keys))

    @pytest.mark.parametrize(
        "size,span", [(1, 1), (100, 10), (4096, 5000), (5000, 2**40)]
    )
    def test_random_keys_equal_np_unique(self, size, span):
        rng = np.random.default_rng(size)
        keys = rng.integers(-span, span, size, dtype=np.int64)
        assert np.array_equal(sorted_unique(keys), np.unique(keys))

    def test_leaves_its_input_alone(self):
        keys = np.array([3, 1, 3, 2], dtype=np.int64)
        sorted_unique(keys)
        assert keys.tolist() == [3, 1, 3, 2]

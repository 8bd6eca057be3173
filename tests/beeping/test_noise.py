"""Tests for channel noise models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.beeping import BernoulliNoise, NoiselessChannel
from repro.errors import ConfigurationError


class TestNoiselessChannel:
    def test_identity(self):
        channel = NoiselessChannel()
        received = np.array([True, False, True])
        heard = channel.apply(received, 0)
        assert np.array_equal(heard, received)

    def test_returns_copy(self):
        channel = NoiselessChannel()
        received = np.array([True, False])
        heard = channel.apply(received, 0)
        heard[0] = False
        assert received[0]

    def test_eps_zero(self):
        assert NoiselessChannel().eps == 0.0


class TestBernoulliNoise:
    def test_eps_range_enforced(self):
        for eps in [0.0, 0.5, 0.9, -0.1]:
            with pytest.raises(ConfigurationError):
                BernoulliNoise(eps, seed=0)

    def test_flip_rate_close_to_eps(self):
        channel = BernoulliNoise(0.2, seed=1)
        zeros = np.zeros((40, 5000), dtype=bool)
        heard = channel.apply(zeros, 0)
        assert abs(heard.mean() - 0.2) < 0.01

    def test_deterministic_per_round(self):
        a = BernoulliNoise(0.3, seed=5)
        b = BernoulliNoise(0.3, seed=5)
        received = np.zeros(64, dtype=bool)
        assert np.array_equal(a.apply(received, 17), b.apply(received, 17))

    def test_different_rounds_differ(self):
        channel = BernoulliNoise(0.3, seed=5)
        received = np.zeros(256, dtype=bool)
        assert not np.array_equal(
            channel.apply(received, 0), channel.apply(received, 1)
        )

    def test_different_seeds_differ(self):
        received = np.zeros(256, dtype=bool)
        a = BernoulliNoise(0.3, seed=1).apply(received, 0)
        b = BernoulliNoise(0.3, seed=2).apply(received, 0)
        assert not np.array_equal(a, b)

    def test_flips_symmetric_on_ones(self):
        channel = BernoulliNoise(0.25, seed=3)
        ones = np.ones((30, 4000), dtype=bool)
        heard = channel.apply(ones, 0)
        assert abs((~heard).mean() - 0.25) < 0.015

    def test_rejects_3d_input(self):
        channel = BernoulliNoise(0.1, seed=0)
        with pytest.raises(ConfigurationError):
            channel.apply(np.zeros((2, 2, 2), dtype=bool), 0)

    @settings(max_examples=20)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 30),
        st.integers(1, 40),
    )
    def test_batch_equals_per_round_property(self, start, n, rounds):
        """The core determinism contract: flips depend only on (seed, round, n)."""
        channel = BernoulliNoise(0.2, seed=9)
        fresh = BernoulliNoise(0.2, seed=9)
        received = np.zeros((n, rounds), dtype=bool)
        block = channel.apply(received, start)
        columns = np.stack(
            [fresh.apply(received[:, i], start + i) for i in range(rounds)],
            axis=1,
        )
        assert np.array_equal(block, columns)

    def test_window_boundary_consistency(self):
        """Blocks spanning the 4096-round window boundary stay consistent."""
        channel = BernoulliNoise(0.2, seed=2)
        received = np.zeros((8, 100), dtype=bool)
        block = channel.apply(received, 4096 - 50)
        left = BernoulliNoise(0.2, seed=2).apply(received[:, :50], 4096 - 50)
        right = BernoulliNoise(0.2, seed=2).apply(received[:, 50:], 4096)
        assert np.array_equal(block, np.concatenate([left, right], axis=1))

"""Tests for the vectorised schedule executor, including the bit-exact
equivalence of its two kernels with each other and with the per-round
engine (the contract docs/ARCHITECTURE.md promises in "Two kernels, one
size rule")."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.beeping import BeepingNetwork, BernoulliNoise, ScheduledProtocol
from repro.engine import run_schedule
from repro.engine.bitpacked import BitpackedBackend
from repro.engine.dense import DenseBackend
from repro.errors import ConfigurationError
from repro.graphs import (
    Topology,
    gnp_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)

#: Mirrors repro.beeping.noise._WINDOW — start offsets are drawn around
#: multiples of it so phases straddle noise-window boundaries.
_NOISE_WINDOW = 4096

#: A graph on which the per-round engine's carrier sense once took a
#: packed row-bitmap path (n >= 64 and mean degree >= n / 64).  Its
#: schedules start 12 rounds before a noise-window boundary, so each
#: 24-round check straddles it.
_REGULAR = Topology(random_regular_graph(130, 8, seed=0))
_STRADDLING_START = _NOISE_WINDOW - 12

DENSE = DenseBackend()
PACKED = BitpackedBackend()


def _engine_heard(topology, schedule, channel=None, start_round=0):
    """The heard matrix of ``BeepingNetwork`` replaying ``schedule``."""
    n, rounds = schedule.shape
    protocols = [
        ScheduledProtocol(schedule[v], start_round=start_round) for v in range(n)
    ]
    BeepingNetwork(topology, channel).run(
        protocols,
        max_rounds=rounds,
        start_round=start_round,
        stop_when_finished=False,
    )
    return np.stack([protocol.heard for protocol in protocols])


def _assert_regular_graph_matches(schedule_seed, noisy):
    """On ``_REGULAR``, the per-round engine hears what both kernels hear."""
    schedule = np.random.default_rng(schedule_seed).random((130, 24)) < 0.3

    def channel():
        return BernoulliNoise(0.2, seed=5) if noisy else None

    expected = _engine_heard(_REGULAR, schedule, channel(), _STRADDLING_START)
    for kernel in (DENSE, PACKED):
        heard = kernel.run_schedule(
            _REGULAR, schedule, channel(), _STRADDLING_START
        )
        assert np.array_equal(heard, expected), kernel


class TestRunSchedule:
    def test_shapes(self):
        t = Topology(path_graph(4))
        heard = run_schedule(t, np.zeros((4, 9), dtype=bool))
        assert heard.shape == (4, 9)

    def test_own_beep_heard(self):
        t = Topology(path_graph(3))
        schedule = np.zeros((3, 1), dtype=bool)
        schedule[1, 0] = True
        heard = run_schedule(t, schedule)
        assert heard[1, 0] and heard[0, 0] and heard[2, 0]

    def test_out_of_range_silent(self):
        t = Topology(star_graph(4))
        schedule = np.zeros((4, 2), dtype=bool)
        schedule[3, 0] = True  # a leaf
        heard = run_schedule(t, schedule)
        # other leaves don't hear a sibling leaf
        assert not heard[1, 0] and not heard[2, 0]
        assert heard[0, 0]  # hub does

    def test_row_count_checked(self):
        t = Topology(path_graph(3))
        with pytest.raises(ConfigurationError):
            run_schedule(t, np.zeros((4, 2), dtype=bool))

    def test_one_dim_rejected(self):
        t = Topology(path_graph(3))
        with pytest.raises(ConfigurationError):
            run_schedule(t, np.zeros(3, dtype=bool))


class TestEngineEquivalence:
    @settings(max_examples=15)
    @given(
        st.integers(0, 500),
        st.integers(0, 2**16),
        st.integers(1, 24),
    )
    def test_batch_equals_engine_noisy(self, graph_seed, start_round, rounds):
        """run_schedule == BeepingNetwork on identical schedules and noise."""
        t = Topology(gnp_graph(8, 0.35, seed=graph_seed))
        rng = np.random.default_rng(graph_seed + 1)
        schedule = rng.random((8, rounds)) < 0.3

        channel_batch = BernoulliNoise(0.2, seed=5)
        heard_batch = run_schedule(t, schedule, channel_batch, start_round=start_round)

        channel_engine = BernoulliNoise(0.2, seed=5)
        assert np.array_equal(
            heard_batch, _engine_heard(t, schedule, channel_engine, start_round)
        )
        _assert_regular_graph_matches(graph_seed, noisy=True)

    def test_batch_equals_engine_noiseless(self):
        t = Topology(gnp_graph(10, 0.3, seed=3))
        rng = np.random.default_rng(0)
        schedule = rng.random((10, 30)) < 0.25
        heard_batch = run_schedule(t, schedule)
        assert np.array_equal(heard_batch, _engine_heard(t, schedule))
        _assert_regular_graph_matches(0, noisy=False)


class TestBackendEquivalence:
    """DenseBackend and BitpackedBackend hear bit-identical matrices.

    The offsets are drawn both uniformly and clustered around noise-window
    boundaries, and the round counts are long enough that phases straddle
    windows — the regime where the packed flip words must reproduce the
    windowed Philox stream exactly.
    """

    @settings(max_examples=30)
    @given(
        graph_seed=st.integers(0, 500),
        start_round=st.one_of(
            st.integers(0, 3 * _NOISE_WINDOW),
            st.integers(_NOISE_WINDOW - 100, _NOISE_WINDOW + 100),
            st.integers(2 * _NOISE_WINDOW - 70, 2 * _NOISE_WINDOW + 70),
        ),
        rounds=st.integers(1, 200),
        density=st.floats(0.05, 0.9),
    )
    def test_bitpacked_equals_dense_noisy(
        self, graph_seed, start_round, rounds, density
    ):
        t = Topology(gnp_graph(9, density, seed=graph_seed))
        rng = np.random.default_rng(graph_seed + 1)
        schedule = rng.random((9, rounds)) < 0.3
        channel = BernoulliNoise(0.2, seed=5)
        heard_dense = DENSE.run_schedule(t, schedule, channel, start_round)
        heard_packed = PACKED.run_schedule(t, schedule, channel, start_round)
        assert np.array_equal(heard_dense, heard_packed)

    @settings(max_examples=15)
    @given(
        graph_seed=st.integers(0, 500),
        rounds=st.integers(1, 150),
    )
    def test_bitpacked_equals_dense_noiseless(self, graph_seed, rounds):
        t = Topology(gnp_graph(11, 0.3, seed=graph_seed))
        rng = np.random.default_rng(graph_seed)
        schedule = rng.random((11, rounds)) < 0.25
        assert np.array_equal(
            DENSE.run_schedule(t, schedule),
            PACKED.run_schedule(t, schedule),
        )

    @settings(max_examples=10)
    @given(
        start_round=st.integers(0, 2 * _NOISE_WINDOW),
        phase_lengths=st.lists(st.integers(1, 120), min_size=2, max_size=5),
    )
    def test_chained_phases_match_across_backends(
        self, start_round, phase_lengths
    ):
        """Phase chaining (as Algorithm 1 does between its two phases)
        stays bit-identical when the kernels differ per phase."""
        t = Topology(gnp_graph(8, 0.35, seed=2))
        rng = np.random.default_rng(7)
        channel = BernoulliNoise(0.15, seed=11)
        offset = start_round
        for length in phase_lengths:
            schedule = rng.random((8, length)) < 0.3
            heard_dense = DENSE.run_schedule(t, schedule, channel, offset)
            heard_packed = PACKED.run_schedule(t, schedule, channel, offset)
            assert np.array_equal(heard_dense, heard_packed)
            offset += length

    @settings(max_examples=10)
    @given(
        graph_seed=st.integers(0, 100),
        start_round=st.integers(0, 2**16),
        rounds=st.integers(1, 24),
    )
    def test_bitpacked_equals_per_round_engine(
        self, graph_seed, start_round, rounds
    ):
        """The packed path also matches the per-round engine directly."""
        t = Topology(gnp_graph(8, 0.35, seed=graph_seed))
        rng = np.random.default_rng(graph_seed + 1)
        schedule = rng.random((8, rounds)) < 0.3
        heard = PACKED.run_schedule(
            t, schedule, BernoulliNoise(0.2, seed=5), start_round
        )
        assert np.array_equal(
            heard,
            _engine_heard(t, schedule, BernoulliNoise(0.2, seed=5), start_round),
        )
        _assert_regular_graph_matches(graph_seed, noisy=True)

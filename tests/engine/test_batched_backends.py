"""Tests for the kernels' replica-batched entry point (run_schedule_batch).

``run_schedule_batch`` is each kernel's one schedule path, and
``run_schedule`` is the base class's batch of one.  The contract under
test: for both kernels, replica ``r`` of a batched execution is
bit-identical to a standalone ``run_schedule`` call with replica ``r``'s
schedule, channel and start round — for any mix of channels (``None``
entries meaning noiseless, and channel subclasses that override
``apply``) and for per-replica start rounds (including offsets that
straddle the Philox noise-window boundary).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.beeping import run_schedule_batch
from repro.beeping.noise import (
    AdversarialNoise,
    BernoulliNoise,
    NoiseModel,
    NoiselessChannel,
    unreliable_zone,
)
from repro.engine import normalize_batch_args, validate_schedule_batch
from repro.engine.bitpacked import BitpackedBackend
from repro.engine.dense import DenseBackend
from repro.errors import ConfigurationError
from repro.graphs import (
    Topology,
    complete_graph,
    gnp_graph,
    path_graph,
    star_graph,
)

DENSE = DenseBackend()
PACKED = BitpackedBackend()

#: Rounds per noise window (mirrors repro.beeping.noise._WINDOW).
WINDOW = 4096


def batch_reference(backend, topology, schedules, channels, starts):
    """The defining semantics: one run_schedule call (a batch of one) per replica."""
    return np.stack(
        [
            backend.run_schedule(topology, schedules[r], channels[r], starts[r])
            for r in range(schedules.shape[0])
        ]
    )


class InvertingChannel(NoiseModel):
    """A custom (non-builtin) channel: flips every heard bit."""

    @property
    def eps(self):
        return 0.5

    def apply(self, received, round_index):
        return ~np.asarray(received, dtype=bool)


class InvertingBernoulli(BernoulliNoise):
    """A windowed-channel subclass whose ``apply`` also inverts node 0's row.

    Its flips are a plain :class:`BernoulliNoise` stream, so only a
    dispatch on the exact channel type sends it down the generic path
    that honours the overridden ``apply``.
    """

    def apply(self, received, round_index):
        heard = super().apply(received, round_index)
        heard[0] = ~heard[0]
        return heard


@pytest.mark.parametrize("backend", [DENSE, PACKED], ids=["dense", "bitpacked"])
class TestBatchMatchesLoop:
    def test_noiseless(self, backend):
        topology = Topology(gnp_graph(20, 0.2, seed=3))
        rng = np.random.default_rng(0)
        schedules = rng.random((5, 20, 70)) < 0.3
        channels, starts = normalize_batch_args(5, None, 0)
        batched = backend.run_schedule_batch(topology, schedules)
        assert np.array_equal(
            batched, batch_reference(backend, topology, schedules, channels, starts)
        )

    def test_per_replica_channels_and_offsets(self, backend):
        topology = Topology(gnp_graph(15, 0.3, seed=5))
        rng = np.random.default_rng(1)
        schedules = rng.random((4, 15, 90)) < 0.4
        channels = [
            BernoulliNoise(0.1, seed=7),
            NoiselessChannel(),
            BernoulliNoise(0.3, seed=8),
            BernoulliNoise(0.1, seed=7),  # shared stream, different offset
        ]
        starts = [0, 13, 5000, 64]
        batched = backend.run_schedule_batch(topology, schedules, channels, starts)
        assert np.array_equal(
            batched, batch_reference(backend, topology, schedules, channels, starts)
        )

    def test_offsets_straddling_noise_windows(self, backend):
        """Per-replica start rounds around the 4096-round Philox window edge.

        Each replica's noise must come from its own ``(seed, window)``
        blocks even when the batch mixes replicas on both sides of a
        window boundary and replicas whose phase crosses it mid-schedule.
        """
        topology = Topology(star_graph(9))
        rng = np.random.default_rng(2)
        rounds = 120
        schedules = rng.random((4, 9, rounds)) < 0.5
        channels = [BernoulliNoise(0.2, seed=21 + r) for r in range(4)]
        starts = [
            WINDOW - 1,            # crosses the boundary at round 1
            WINDOW - rounds // 2,  # crosses mid-phase
            WINDOW,                # starts exactly on the boundary
            3 * WINDOW - 7,        # a later window, still straddling
        ]
        batched = backend.run_schedule_batch(topology, schedules, channels, starts)
        assert np.array_equal(
            batched, batch_reference(backend, topology, schedules, channels, starts)
        )

    def test_custom_channel_applies_per_replica(self, backend):
        topology = Topology(path_graph(6))
        rng = np.random.default_rng(3)
        schedules = rng.random((3, 6, 40)) < 0.5
        channels = [InvertingChannel(), NoiselessChannel(), BernoulliNoise(0.1, seed=4)]
        starts = [0, 0, 4090]
        batched = backend.run_schedule_batch(topology, schedules, channels, starts)
        assert np.array_equal(
            batched, batch_reference(backend, topology, schedules, channels, starts)
        )

    def test_none_channel_entries_are_noiseless(self, backend):
        topology = Topology(gnp_graph(14, 0.3, seed=6))
        rng = np.random.default_rng(7)
        schedules = rng.random((3, 14, 80)) < 0.3
        noiseless = [NoiselessChannel()] * 3
        expected = backend.run_schedule_batch(topology, schedules, noiseless)
        mixed = [None, NoiselessChannel(), None]
        assert np.array_equal(
            backend.run_schedule_batch(topology, schedules, mixed), expected
        )
        assert np.array_equal(
            run_schedule_batch(topology, schedules, mixed, [0, 0, 0]),
            expected,
        )

    def test_single_replica_and_degenerate_shapes(self, backend):
        topology = Topology(complete_graph(5))
        rng = np.random.default_rng(4)
        one = rng.random((1, 5, 33)) < 0.5
        assert np.array_equal(
            backend.run_schedule_batch(topology, one)[0],
            backend.run_schedule(topology, one[0]),
        )
        empty_rounds = np.zeros((3, 5, 0), dtype=bool)
        assert backend.run_schedule_batch(topology, empty_rounds).shape == (3, 5, 0)
        empty_batch = np.zeros((0, 5, 9), dtype=bool)
        assert backend.run_schedule_batch(topology, empty_batch).shape == (0, 5, 9)

    @settings(max_examples=25)
    @given(
        graph_seed=st.integers(0, 5),
        replicas=st.integers(1, 4),
        rounds=st.integers(1, 150),
        start=st.integers(0, 2 * WINDOW),
        data_seed=st.integers(0, 2**16),
    )
    def test_property_batch_equals_loop(
        self, backend, graph_seed, replicas, rounds, start, data_seed
    ):
        topology = Topology(gnp_graph(12, 0.3, seed=graph_seed))
        rng = np.random.default_rng(data_seed)
        schedules = rng.random((replicas, 12, rounds)) < 0.35
        channels = [
            BernoulliNoise(0.15, seed=data_seed + r) for r in range(replicas)
        ]
        starts = [start + 17 * r for r in range(replicas)]
        batched = backend.run_schedule_batch(topology, schedules, channels, starts)
        assert np.array_equal(
            batched, batch_reference(backend, topology, schedules, channels, starts)
        )


class TestBackendsAgree:
    def test_dense_and_bitpacked_identical_batches(self):
        topology = Topology(gnp_graph(18, 0.25, seed=9))
        rng = np.random.default_rng(5)
        schedules = rng.random((6, 18, 77)) < 0.3
        channels = [BernoulliNoise(0.2, seed=30 + r) for r in range(6)]
        starts = [WINDOW - 10 + 3 * r for r in range(6)]
        assert np.array_equal(
            DENSE.run_schedule_batch(topology, schedules, channels, starts),
            PACKED.run_schedule_batch(topology, schedules, channels, starts),
        )

    @pytest.mark.parametrize("backend", [PACKED], ids=["bitpacked"])
    def test_windowed_subclass_takes_the_generic_path(self, backend):
        """A subclass of a packed-flip channel type must keep its ``apply``.

        The bit-packed kernel packs flips only for the exact library
        types; ``InvertingBernoulli`` overrides ``apply`` and must take
        the generic path, in a batch that mixes it with every other kind.
        """
        topology = Topology(gnp_graph(24, 0.2, seed=11))
        rng = np.random.default_rng(8)
        schedules = rng.random((5, 24, 100)) < 0.3
        channels = [
            InvertingBernoulli(0.1, seed=50),
            BernoulliNoise(0.1, seed=50),
            AdversarialNoise(0.1, seed=51),
            unreliable_zone(24, frac=0.25, eps_hot=0.3, eps_cold=0.05, seed=52),
            NoiselessChannel(),
        ]
        starts = [WINDOW - 40 + 7 * r for r in range(5)]
        expected = DENSE.run_schedule_batch(topology, schedules, channels, starts)
        plain = DENSE.run_schedule(topology, schedules[0], channels[1], starts[0])
        assert np.array_equal(expected[0][0], ~plain[0])
        assert np.array_equal(
            backend.run_schedule_batch(topology, schedules, channels, starts),
            expected,
        )
        for r in range(5):
            assert np.array_equal(
                backend.run_schedule(
                    topology, schedules[r], channels[r], starts[r]
                ),
                expected[r],
            )


class TestValidation:
    def test_batch_shape_checked(self):
        topology = Topology(path_graph(4))
        with pytest.raises(ConfigurationError):
            validate_schedule_batch(topology, np.zeros((4, 5), dtype=bool))
        with pytest.raises(ConfigurationError):
            validate_schedule_batch(topology, np.zeros((2, 5, 3), dtype=bool))

    def test_channel_and_offset_counts_checked(self):
        with pytest.raises(ConfigurationError):
            normalize_batch_args(3, [NoiselessChannel()] * 2, 0)
        with pytest.raises(ConfigurationError):
            normalize_batch_args(3, None, [0, 1])

    def test_broadcast_forms(self):
        shared = BernoulliNoise(0.1, seed=1)
        channels, starts = normalize_batch_args(3, shared, 7)
        assert channels == [shared] * 3
        assert starts == [7, 7, 7]
        channels, starts = normalize_batch_args(2, None, None)
        assert all(isinstance(c, NoiselessChannel) for c in channels)
        assert starts == [0, 0]

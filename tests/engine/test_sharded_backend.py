"""Equivalence and degenerate-shape tests for the sharded backend.

The contract pinned down here is the tentpole invariant: for **every**
shard count ``P``, both local kernels, and every channel shape, the
sharded multi-process engine produces heard matrices **bit-identical**
to the single-process :class:`~repro.engine.DenseBackend` reference —
randomness stays keyed by ``(seed, round, node)``, never by rank or
``P``.  Degenerate partitions (``P > n``, empty shards, zero boundary
edges, ``P = 1`` delegation) are exercised explicitly, as is the
per-worker memory guard's clean :class:`~repro.errors.MemoryBudgetError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.beeping.noise import (
    AdversarialNoise,
    BernoulliNoise,
    NoiselessChannel,
    unreliable_zone,
)
from repro.engine import (
    DenseBackend,
    ShardedBackend,
    with_shards,
)
from repro.errors import ConfigurationError, MemoryBudgetError
from repro.graphs import Topology, gnp_graph, path_graph

DENSE = DenseBackend()


@pytest.fixture(scope="module")
def topology() -> Topology:
    return Topology(gnp_graph(61, 0.1, seed=5))


def schedule_for(topology: Topology, rounds: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((topology.num_nodes, rounds)) < 0.25


def sharded(request, *args, **kwargs) -> ShardedBackend:
    """A ShardedBackend whose worker pool is torn down after the test."""
    backend = ShardedBackend(*args, **kwargs)
    request.addfinalizer(backend.close)
    return backend


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("kernel", ["dense", "bitpacked"])
    def test_run_schedule_matches_dense(self, request, topology, shards, kernel):
        backend = sharded(request, shards, base=kernel)
        schedule = schedule_for(topology, 70)
        for channel, start in (
            (None, 0),
            (NoiselessChannel(), 3),
            (BernoulliNoise(0.1, 42), 11),
            # straddles the 4096-round Philox flip-window boundary
            (BernoulliNoise(0.05, 7), 4090),
        ):
            expected = DENSE.run_schedule(topology, schedule, channel, start)
            actual = backend.run_schedule(topology, schedule, channel, start)
            assert np.array_equal(expected, actual), (channel, start)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_run_schedule_batch_matches_dense(self, request, topology, shards):
        backend = sharded(request, shards)
        rng = np.random.default_rng(9)
        schedules = rng.random((3, topology.num_nodes, 40)) < 0.2
        channels = [
            NoiselessChannel(),
            BernoulliNoise(0.2, 4),
            BernoulliNoise(0.1, 4),
        ]
        starts = [0, 17, 4090]
        expected = DENSE.run_schedule_batch(topology, schedules, channels, starts)
        actual = backend.run_schedule_batch(topology, schedules, channels, starts)
        assert np.array_equal(expected, actual)

    def test_neighbor_or_vector_and_matrix(self, request, topology):
        # Carrier sense one column wide and 33 columns wide.
        backend = sharded(request, 3)
        rng = np.random.default_rng(3)
        column = rng.random((topology.num_nodes, 1)) < 0.3
        assert np.array_equal(
            DENSE.run_schedule(topology, column),
            backend.run_schedule(topology, column),
        )
        matrix = schedule_for(topology, 33, seed=8)
        assert np.array_equal(
            DENSE.run_schedule(topology, matrix),
            backend.run_schedule(topology, matrix),
        )

    def test_custom_channel_applied_at_coordinator(self, request, topology):
        # A NoiseModel subclass the workers cannot reconstruct must be
        # applied to the assembled matrix — same values as single-process.
        class StuckBeeps(NoiselessChannel):
            def apply(self, received, start_round=0):
                out = received.copy()
                out[::2] = True
                return out

        backend = sharded(request, 2)
        schedule = schedule_for(topology, 20)
        expected = DENSE.run_schedule(topology, schedule, StuckBeeps(), 5)
        actual = backend.run_schedule(topology, schedule, StuckBeeps(), 5)
        assert np.array_equal(expected, actual)

    def test_identical_across_shard_counts(self, request, topology):
        schedule = schedule_for(topology, 64)
        channel = BernoulliNoise(0.15, 21)
        results = [
            sharded(request, shards).run_schedule(topology, schedule, channel, 2)
            for shards in (1, 2, 3, 4)
        ]
        for other in results[1:]:
            assert np.array_equal(results[0], other)


def scenario_channels(n: int):
    """One instance of every scenario channel the workers reconstruct."""
    return [
        AdversarialNoise(0.1, 17),
        unreliable_zone(n, frac=0.2, eps_hot=0.4, eps_cold=0.02, seed=17),
    ]


class TestScenarioBitIdentity:
    """The new scenario channels stay bit-identical at every shard count.

    The workers rebuild these channels from picklable specs and slice
    their local rows out of the full flip block, so the flips must match
    the single-process reference exactly — including across the Philox
    window boundary and for ``P = 1`` (the no-pool delegation path).
    """

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("kernel", ["dense", "bitpacked"])
    def test_run_schedule_matches_dense(self, request, topology, shards, kernel):
        backend = sharded(request, shards, base=kernel)
        schedule = schedule_for(topology, 60)
        for channel in scenario_channels(topology.num_nodes):
            for start in (0, 4090):
                expected = DENSE.run_schedule(topology, schedule, channel, start)
                actual = backend.run_schedule(topology, schedule, channel, start)
                assert np.array_equal(expected, actual), (channel, start)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_mixed_channel_batch_matches_dense(self, request, topology, shards):
        backend = sharded(request, shards)
        rng = np.random.default_rng(11)
        schedules = rng.random((3, topology.num_nodes, 30)) < 0.2
        channels = [
            BernoulliNoise(0.1, 4),
            *scenario_channels(topology.num_nodes),
        ]
        starts = [0, 17, 4090]
        expected = DENSE.run_schedule_batch(topology, schedules, channels, starts)
        actual = backend.run_schedule_batch(topology, schedules, channels, starts)
        assert np.array_equal(expected, actual)

    def test_identical_across_shard_counts(self, request, topology):
        schedule = schedule_for(topology, 50)
        for channel in scenario_channels(topology.num_nodes):
            results = [
                sharded(request, shards).run_schedule(
                    topology, schedule, channel, 2
                )
                for shards in (1, 2, 4)
            ]
            for other in results[1:]:
                assert np.array_equal(results[0], other)


class TestDegenerateShapes:
    def test_more_shards_than_nodes(self, request):
        topology = Topology(gnp_graph(5, 0.6, seed=2))
        backend = sharded(request, 9)
        schedule = schedule_for(topology, 12)
        assert np.array_equal(
            DENSE.run_schedule(topology, schedule),
            backend.run_schedule(topology, schedule),
        )

    def test_single_node_shards(self, request):
        # n = 3, P = 3: at most one node per shard, every edge boundary.
        topology = Topology(path_graph(3))
        backend = sharded(request, 3)
        schedule = schedule_for(topology, 8)
        assert np.array_equal(
            DENSE.run_schedule(topology, schedule),
            backend.run_schedule(topology, schedule),
        )

    def test_edgeless_graph_zero_boundary(self, request):
        topology = Topology(gnp_graph(10, 0.0, seed=0))
        backend = sharded(request, 4)
        schedule = schedule_for(topology, 16)
        expected = DENSE.run_schedule(topology, schedule, BernoulliNoise(0.3, 5), 1)
        actual = backend.run_schedule(topology, schedule, BernoulliNoise(0.3, 5), 1)
        assert np.array_equal(expected, actual)

    def test_shards_one_delegates_without_spawning(self, topology):
        backend = ShardedBackend(1)
        schedule = schedule_for(topology, 30)
        assert np.array_equal(
            DENSE.run_schedule(topology, schedule),
            backend.run_schedule(topology, schedule),
        )
        assert backend.worker_stats() == []  # no pool was ever spawned
        backend.close()

    def test_zero_rounds_delegates(self, request, topology):
        backend = sharded(request, 2)
        schedule = schedule_for(topology, 0)
        result = backend.run_schedule(topology, schedule)
        assert result.shape == (topology.num_nodes, 0)


class TestMemoryGuard:
    def test_worker_budget_error_reraised(self, topology):
        # ~10 MB cannot hold a worker interpreter: the guard must trip
        # inside the worker and surface as a clean typed error here.
        backend = ShardedBackend(2, memory_budget_bytes=10 << 20)
        schedule = schedule_for(topology, 16)
        try:
            with pytest.raises(MemoryBudgetError, match="shard worker"):
                backend.run_schedule(topology, schedule)
        finally:
            backend.close()

    def test_pool_respawns_after_error(self, request, topology):
        backend = sharded(request, 2, memory_budget_bytes=10 << 20)
        schedule = schedule_for(topology, 16)
        with pytest.raises(MemoryBudgetError):
            backend.run_schedule(topology, schedule)
        # The same instance must recover once the budget allows it.
        backend._budget = None
        assert np.array_equal(
            DENSE.run_schedule(topology, schedule),
            backend.run_schedule(topology, schedule),
        )

    def test_worker_stats_report_peaks(self, request, topology):
        backend = sharded(request, 2)
        backend.run_schedule(topology, schedule_for(topology, 10))
        stats = backend.worker_stats()
        assert [entry["rank"] for entry in stats] == [0, 1]
        assert all(entry["peak_rss"] > 1 << 20 for entry in stats)
        assert sum(entry["local_nodes"] for entry in stats) == topology.num_nodes


class TestConfiguration:
    def test_with_shards_helper(self):
        assert with_shards("dense", 1) == "dense"
        assert with_shards(None, 1) is None
        backend = with_shards("bitpacked", 4)
        assert isinstance(backend, ShardedBackend)
        assert backend.shards == 4
        assert backend.label == "bitpacked-shards4"
        assert with_shards(backend, 4) is backend
        with pytest.raises(ConfigurationError):
            with_shards(backend, 2)
        backend.close()

    @pytest.mark.parametrize("shards", [0, -2, 1.5, True])
    def test_bad_shard_counts_rejected(self, shards):
        with pytest.raises(ConfigurationError):
            ShardedBackend(shards)

    def test_nested_sharding_rejected(self):
        inner = ShardedBackend(2)
        try:
            with pytest.raises(ConfigurationError):
                ShardedBackend(2, base=inner)
        finally:
            inner.close()

    def test_unknown_base_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend(2, base="quantum")
        with pytest.raises(ConfigurationError):
            with_shards("native", 2)

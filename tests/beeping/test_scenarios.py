"""Scenario-layer tests: heterogeneous, adversarial, and dynamic networks.

Pins the window contract for every noise model — flips for round ``t``
are a pure function of ``(seed, t, n)``, never of batching, kernel, or
replica grouping — plus the :class:`DynamicTopology` epoch-mask
semantics and the grid-facing noise-model registry.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.beeping.noise import (
    AdversarialNoise,
    BernoulliNoise,
    DynamicTopology,
    HeterogeneousNoise,
    NoiselessChannel,
    make_noise_model,
    noise_model_names,
    parse_noise_model,
    unreliable_zone,
    zone_rates,
)
from repro.engine import run_schedule, run_schedule_batch
from repro.engine.bitpacked import BitpackedBackend
from repro.engine.dense import DenseBackend
from repro.errors import ConfigurationError
from repro.graphs import Topology, gnp_graph, path_graph
from repro.packing import unpack_rows
from repro.rng import derive_rng, derive_seed

_WINDOW = 4096

KERNELS = {"dense": DenseBackend(), "bitpacked": BitpackedBackend()}


def _channels(n: int, seed: int = 7):
    """One instance of every windowed channel, pinned to ``n`` nodes."""
    return [
        BernoulliNoise(0.2, seed),
        AdversarialNoise(0.1, seed),
        unreliable_zone(n, frac=0.25, eps_hot=0.4, eps_cold=0.05, seed=seed),
    ]


def _flips(channel, start: int, rounds: int, n: int) -> np.ndarray:
    """``channel``'s boolean ``(n, rounds)`` flips: its packed words unpacked."""
    return unpack_rows(channel.flip_block(start, rounds, n), rounds)


class TestWindowContractProperty:
    """apply per round == flip_block batched, for every model, any offset."""

    @settings(max_examples=20)
    @given(
        st.integers(0, 3 * _WINDOW),
        st.integers(1, 24),
        st.integers(1, 32),
        st.integers(0, 2),
    )
    def test_batch_equals_per_round(self, start, n, rounds, which):
        channel = _channels(n)[which]
        fresh = _channels(n)[which]
        received = np.zeros((n, rounds), dtype=bool)
        block = channel.apply(received, start)
        columns = np.stack(
            [fresh.apply(received[:, i], start + i) for i in range(rounds)],
            axis=1,
        )
        assert np.array_equal(block, columns)

    @settings(max_examples=20)
    @given(st.integers(1, 20), st.integers(1, 64), st.integers(0, 2))
    def test_window_straddle_equals_concatenation(self, n, rounds, which):
        start = _WINDOW - rounds // 2 - 1
        block = _flips(_channels(n)[which], start, rounds, n)
        split = min(rounds, _WINDOW - start)
        fresh = _channels(n)[which]
        left = _flips(fresh, start, split, n)
        parts = [left]
        if split < rounds:
            parts.append(_flips(fresh, start + split, rounds - split, n))
        assert np.array_equal(block, np.concatenate(parts, axis=1))

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_flips_never_depend_on_input(self, which):
        # XOR semantics: heard ^ received must be the same flip pattern
        # whatever was transmitted (the adversary cannot read the bits).
        n = 12
        channel = _channels(n)[which]
        zeros = np.zeros((n, 30), dtype=bool)
        ones = np.ones((n, 30), dtype=bool)
        from_zeros = channel.apply(zeros, 100)
        from_ones = channel.apply(ones, 100)
        assert np.array_equal(from_zeros, ~from_ones)


class TestNegativeRoundRejected:
    """A windowed channel keys flips by global round, which is never negative.

    A negative round is the one-line error the simulation entry points
    raise, on the per-round, block and packed-flip paths alike; a
    negative ``rounds`` or ``n`` given to ``flip_block`` is one too.
    """

    @pytest.mark.parametrize(
        "which", [0, 1, 2], ids=["bernoulli", "adversarial", "zone"]
    )
    def test_apply_and_flip_block(self, which):
        channel = _channels(4)[which]
        calls = (
            lambda: channel.apply(np.zeros(4, dtype=bool), -1),
            lambda: channel.apply(np.zeros((4, 3), dtype=bool), -1),
            lambda: channel.flip_block(-1, 4, 4),
            lambda: channel.flip_block(-5, 0, 4),
        )
        for call in calls:
            with pytest.raises(
                ConfigurationError, match=r"round_index must be >= 0, got -\d$"
            ):
                call()
        assert _flips(channel, 0, 4, 4).shape == (4, 4)

    @pytest.mark.parametrize(
        "which", [0, 1, 2], ids=["bernoulli", "adversarial", "zone"]
    )
    def test_flip_block_rejects_negative_sizes(self, which):
        channel = _channels(4)[which]
        for rounds, n, name in ((-1, 4, "rounds"), (4, -3, "n"), (0, -1, "n")):
            with pytest.raises(
                ConfigurationError, match=rf"^{name} must be >= 0, got -\d$"
            ):
                channel.flip_block(0, rounds, n)


class TestWindowCacheKey:
    """Regression: the window cache keys on (window, n), and eviction
    replays identical flips — one channel shared across two graph sizes
    can never cross-contaminate."""

    def test_interleaved_sizes_match_fresh_channels(self):
        shared = BernoulliNoise(0.3, seed=11)
        small = BernoulliNoise(0.3, seed=11).flip_block(0, 40, 8)
        large = BernoulliNoise(0.3, seed=11).flip_block(0, 40, 13)
        for _ in range(3):  # alternate sizes against the one instance
            assert np.array_equal(shared.flip_block(0, 40, 8), small)
            assert np.array_equal(shared.flip_block(0, 40, 13), large)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_eviction_regenerates_identical_flips(self, which):
        n = 9
        channel = _channels(n)[which]
        first = channel.flip_block(0, 16, n).copy()
        # Touch enough distinct windows to evict window 0 from the LRU.
        for window in range(1, 8):
            channel.flip_block(window * _WINDOW, 4, n)
        assert (0, n) not in channel._window_cache
        assert np.array_equal(channel.flip_block(0, 16, n), first)

    def test_heterogeneous_rejects_foreign_width(self):
        channel = unreliable_zone(
            10, frac=0.3, eps_hot=0.4, eps_cold=0.01, seed=3
        )
        with pytest.raises(ConfigurationError, match="built for 10"):
            channel.flip_block(0, 5, 11)


class TestHeterogeneousNoise:
    def test_validation(self):
        for bad in (np.zeros((2, 2)), np.array([]), [0.1, 0.5], [-0.01]):
            with pytest.raises(ConfigurationError):
                HeterogeneousNoise(bad, seed=0)

    def test_eps_is_mean_and_vector_read_only(self):
        channel = HeterogeneousNoise([0.1, 0.3], seed=0)
        assert channel.eps == pytest.approx(0.2)
        assert channel.num_nodes == 2
        with pytest.raises(ValueError):
            channel.eps_vector[0] = 0.4

    def test_per_node_rates_realised(self):
        vector = np.array([0.0, 0.05, 0.45])
        channel = HeterogeneousNoise(vector, seed=5)
        flips = _flips(channel, 0, _WINDOW, 3)
        rates = flips.mean(axis=1)
        assert rates[0] == 0.0
        assert abs(rates[1] - 0.05) < 0.02
        assert abs(rates[2] - 0.45) < 0.03


class TestAdversarialNoise:
    def test_validation(self):
        for eps in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(ConfigurationError):
                AdversarialNoise(eps, seed=0)

    def test_budget_spent_exactly(self):
        n = 20
        eps = 0.05
        channel = AdversarialNoise(eps, seed=1)
        flips = _flips(channel, 0, _WINDOW, n)
        assert int(flips.sum()) == int(eps * _WINDOW * n)

    def test_bursts_are_whole_rounds_plus_one_partial(self):
        n = 7
        channel = AdversarialNoise(0.1, seed=2)
        per_round = _flips(channel, 0, _WINDOW, n).sum(axis=0)
        full = int(0.1 * _WINDOW * n) // n
        assert int((per_round == n).sum()) == full
        partial = per_round[(per_round > 0) & (per_round < n)]
        assert partial.size <= 1

    def test_tiny_budget_rounds_to_zero(self):
        channel = AdversarialNoise(1e-7, seed=0)
        assert not channel.flip_block(0, 64, 3).any()


class TestUnreliableZone:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            unreliable_zone(0, frac=0.5, eps_hot=0.1, eps_cold=0.0, seed=0)
        with pytest.raises(ConfigurationError):
            unreliable_zone(8, frac=1.5, eps_hot=0.1, eps_cold=0.0, seed=0)
        with pytest.raises(ConfigurationError):
            unreliable_zone(8, frac=0.5, eps_hot=0.5, eps_cold=0.0, seed=0)

    def test_hot_count_and_rates(self):
        channel = unreliable_zone(
            20, frac=0.25, eps_hot=0.4, eps_cold=0.01, seed=9
        )
        vector = channel.eps_vector
        assert int((vector == 0.4).sum()) == 5
        assert int((vector == 0.01).sum()) == 15

    def test_zone_is_seeded_and_deterministic(self):
        a = unreliable_zone(16, frac=0.5, eps_hot=0.3, eps_cold=0.0, seed=4)
        b = unreliable_zone(16, frac=0.5, eps_hot=0.3, eps_cold=0.0, seed=4)
        c = unreliable_zone(16, frac=0.5, eps_hot=0.3, eps_cold=0.0, seed=5)
        assert np.array_equal(a.eps_vector, b.eps_vector)
        assert not np.array_equal(a.eps_vector, c.eps_vector)

    def test_frac_zero_is_all_cold(self):
        channel = unreliable_zone(
            6, frac=0.0, eps_hot=0.4, eps_cold=0.02, seed=0
        )
        assert np.all(channel.eps_vector == 0.02)


class TestZoneRates:
    def test_mean_stays_on_budget(self):
        for n, frac, eps in ((16, 0.25, 0.05), (40, 0.1, 0.1), (9, 0.5, 0.02)):
            hot_count, eps_hot, eps_cold = zone_rates(n, frac, eps)
            mean = (hot_count * eps_hot + (n - hot_count) * eps_cold) / n
            assert mean <= eps + 1e-12
            assert eps_hot >= eps >= eps_cold

    def test_full_zone_degenerates_to_uniform(self):
        assert zone_rates(8, 1.0, 0.05) == (8, 0.05, 0.05)


class TestRegistry:
    def test_names_listed(self):
        assert noise_model_names() == ("bernoulli", "adversarial", "zone:<frac>")

    def test_parse_forms(self):
        assert parse_noise_model("bernoulli") == ("bernoulli",)
        assert parse_noise_model("adversarial") == ("adversarial",)
        assert parse_noise_model("zone:0.25") == ("zone", 0.25)

    @pytest.mark.parametrize("name", ["bogus", "zone:", "zone:x", 7])
    def test_unknown_rejected_one_line_listing_known(self, name):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_noise_model(name)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "bernoulli" in message and "adversarial" in message

    @pytest.mark.parametrize("name", ["zone:0", "zone:1.5", "zone:-0.1"])
    def test_zone_fraction_out_of_range_one_line(self, name):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_noise_model(name)
        message = str(excinfo.value)
        assert "\n" not in message and "zone fraction" in message

    def test_bernoulli_matches_historical_default_channel(self):
        # make_noise_model derives the channel seed from the session seed
        # as derive_seed(seed, "channel"), the derivation BroadcastSession's
        # default channel has always used, so cached sweep results from
        # earlier schema versions replay bit-for-bit.
        session_seed = 42
        channel = make_noise_model("bernoulli", 0.1, session_seed, 8)
        legacy = BernoulliNoise(0.1, derive_seed(session_seed, "channel"))
        assert np.array_equal(
            channel.flip_block(0, 200, 8), legacy.flip_block(0, 200, 8)
        )

    @pytest.mark.parametrize("name", ["bernoulli", "adversarial", "zone:0.5"])
    def test_eps_zero_is_noiseless_for_every_model(self, name):
        assert isinstance(make_noise_model(name, 0.0, 1, 8), NoiselessChannel)

    def test_model_types(self):
        assert isinstance(make_noise_model("adversarial", 0.1, 1, 8), AdversarialNoise)
        zone = make_noise_model("zone:0.25", 0.05, 1, 8)
        assert isinstance(zone, HeterogeneousNoise)
        assert zone.num_nodes == 8


class TestDynamicTopology:
    def _base(self, n: int = 20) -> Topology:
        return Topology(gnp_graph(n, 0.3, seed=1))

    def test_validation(self):
        base = self._base()
        with pytest.raises(ConfigurationError):
            DynamicTopology(base, period=0, churn=0.1)
        with pytest.raises(ConfigurationError):
            DynamicTopology(base, period=True, churn=0.1)
        with pytest.raises(ConfigurationError):
            DynamicTopology(base, period=4, churn=1.0)
        with pytest.raises(ConfigurationError):
            DynamicTopology(base, period=4, edge_failure=-0.1)
        wrapped = DynamicTopology(base, period=4, churn=0.1)
        with pytest.raises(ConfigurationError, match="wrap another"):
            DynamicTopology(wrapped, period=4)

    def test_properties_delegate_to_base(self):
        base = self._base()
        dynamic = DynamicTopology(base, period=8, churn=0.3, seed=2)
        assert dynamic.base is base
        assert dynamic.num_nodes == base.num_nodes
        assert dynamic.num_edges == base.num_edges
        assert dynamic.max_degree == base.max_degree

    def test_segments_cover_span_epoch_aligned(self):
        dynamic = DynamicTopology(self._base(), period=3, churn=0.1)
        assert list(dynamic.segments(2, 10)) == [(2, 3), (3, 6), (6, 9), (9, 12)]
        assert list(dynamic.segments(0, 0)) == []
        for start, stop in dynamic.segments(5, 100):
            assert dynamic.epoch_of(start) == dynamic.epoch_of(stop - 1)

    def test_masks_are_seeded_and_cached(self):
        base = self._base()
        dynamic = DynamicTopology(base, period=4, churn=0.4, seed=7)
        twin = DynamicTopology(base, period=4, churn=0.4, seed=7)
        first = dynamic.topology_at(0)
        assert dynamic.topology_at(3) is first  # same epoch, cached
        assert first.edges() == twin.topology_at(0).edges()
        other = DynamicTopology(base, period=4, churn=0.4, seed=8)
        epochs_differ = any(
            dynamic.topology_at(e * 4).edges() != other.topology_at(e * 4).edges()
            for e in range(4)
        )
        assert epochs_differ

    def test_mask_removes_edges_never_nodes(self):
        base = self._base()
        dynamic = DynamicTopology(
            base, period=2, churn=0.5, edge_failure=0.3, seed=3
        )
        base_edges = set(base.edges())
        for epoch in range(5):
            masked = dynamic.topology_at(epoch * 2)
            assert masked.num_nodes == base.num_nodes
            masked_edges = set(masked.edges())
            assert masked_edges <= base_edges

    def test_zero_rates_keep_full_graph(self):
        base = self._base()
        dynamic = DynamicTopology(base, period=4, seed=0)
        masked = dynamic.topology_at(0)
        assert masked.num_edges == base.num_edges

    def test_edgeless_base(self):
        base = Topology(gnp_graph(5, 0.0, seed=0))
        dynamic = DynamicTopology(base, period=2, churn=0.5, seed=1)
        assert dynamic.topology_at(0).num_edges == 0


def networkx_epoch_csr(graph: nx.Graph, dynamic: DynamicTopology, epoch: int):
    """One epoch's CSR as networkx builds it: the oracle for ``topology_at``.

    The same key, Philox draws and draw order as ``DynamicTopology``; the
    kept edges go into an ``nx.Graph`` and come out through networkx's
    own CSR export.
    """
    n = graph.number_of_nodes()
    edges = np.asarray(
        sorted(tuple(sorted(edge)) for edge in graph.edges), dtype=np.int64
    ).reshape(-1, 2)
    key = derive_rng(dynamic.seed, "dynamic-topology-key").integers(
        0, 2**63, size=2, dtype=np.uint64
    )
    rng = np.random.Generator(
        np.random.Philox(key=key, counter=[0, 0, np.uint64(epoch), 0])
    )
    node_down = rng.random(n) < dynamic.churn
    edge_down = rng.random(edges.shape[0]) < dynamic.edge_failure
    keep = ~(edge_down | node_down[edges[:, 0]] | node_down[edges[:, 1]])
    masked = nx.Graph()
    masked.add_nodes_from(range(n))
    masked.add_edges_from(map(tuple, edges[keep]))
    return nx.to_scipy_sparse_array(
        masked, nodelist=range(n), dtype=bool, format="csr"
    )


def assert_epoch_matches(graph, dynamic, epoch) -> None:
    """``topology_at`` over ``epoch`` has the oracle's CSR arrays."""
    reference = networkx_epoch_csr(graph, dynamic, epoch)
    adjacency = dynamic.topology_at(epoch * dynamic.period).adjacency
    assert np.array_equal(adjacency.indptr, reference.indptr), epoch
    assert np.array_equal(adjacency.indices, reference.indices), epoch


class TestEpochOracle:
    """Epochs built from the kept edge array equal the networkx build."""

    @pytest.mark.parametrize("period", (1, 16))
    @pytest.mark.parametrize(
        "churn,edge_failure",
        ((0.0, 0.0), (0.3, 0.0), (0.0, 0.25), (0.2, 0.1), (0.6, 0.5)),
    )
    @pytest.mark.parametrize("seed", (0, 7))
    def test_epochs_equal_networkx_build(self, seed, churn, edge_failure, period):
        graph = gnp_graph(24, 0.25, seed=seed)
        dynamic = DynamicTopology(
            Topology(graph),
            period=period,
            churn=churn,
            edge_failure=edge_failure,
            seed=seed,
        )
        for epoch in (0, 1, 2, 5, 255, 256, 4095, 4096):
            assert_epoch_matches(graph, dynamic, epoch)

    def test_epochs_with_every_edge_down(self):
        graph = path_graph(4)
        dynamic = DynamicTopology(
            Topology(graph), period=3, churn=0.6, edge_failure=0.5, seed=1
        )
        down = [
            epoch
            for epoch in range(40)
            if networkx_epoch_csr(graph, dynamic, epoch).nnz == 0
        ]
        assert down, "no epoch with every edge down"
        for epoch in range(40):
            assert_epoch_matches(graph, dynamic, epoch)
        for epoch in down:
            masked = dynamic.topology_at(epoch * 3)
            assert masked.num_edges == 0 and masked.num_nodes == 4


class TestDynamicExecution:
    """The executor's run_schedule / run_schedule_batch over a DynamicTopology."""

    def _setup(self, n: int = 24, rounds: int = 40):
        base = Topology(gnp_graph(n, 0.25, seed=2))
        dynamic = DynamicTopology(base, period=7, churn=0.2, seed=5)
        schedule = np.random.default_rng(0).random((n, rounds)) < 0.25
        return base, dynamic, schedule

    def test_matches_manual_segmentation(self):
        _, dynamic, schedule = self._setup()
        channel = BernoulliNoise(0.1, 3)
        heard = run_schedule(dynamic, schedule, channel, 4)
        manual = np.empty_like(schedule)
        for start, stop in dynamic.segments(4, schedule.shape[1]):
            lo, hi = start - 4, stop - 4
            manual[:, lo:hi] = KERNELS["dense"].run_schedule(
                dynamic.topology_at(start), schedule[:, lo:hi], channel, start
            )
        assert np.array_equal(heard, manual)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_dense_and_bitpacked_identical(self, which, force_kernel):
        # The 7-round epochs would otherwise always run dense.
        _, dynamic, schedule = self._setup()
        channel = _channels(dynamic.num_nodes)[which]
        force_kernel("dense")
        dense = run_schedule(dynamic, schedule, channel, 11)
        force_kernel("bitpacked")
        packed = run_schedule(dynamic, schedule, channel, 11)
        assert np.array_equal(dense, packed)

    def test_batch_equal_starts_matches_solo(self):
        _, dynamic, schedule = self._setup()
        n = dynamic.num_nodes
        rng = np.random.default_rng(4)
        schedules = rng.random((3, n, 40)) < 0.25
        channels = _channels(n)
        starts = [9, 9, 9]
        batched = run_schedule_batch(dynamic, schedules, channels, starts)
        for index in range(3):
            solo = run_schedule(
                dynamic, schedules[index], channels[index], starts[index]
            )
            assert np.array_equal(batched[index], solo)

    def test_batch_differing_starts_matches_solo(self):
        _, dynamic, _ = self._setup()
        n = dynamic.num_nodes
        rng = np.random.default_rng(6)
        schedules = rng.random((3, n, 25)) < 0.25
        channels = _channels(n)
        starts = [0, 13, 4090]
        batched = run_schedule_batch(dynamic, schedules, channels, starts)
        for index in range(3):
            solo = run_schedule(
                dynamic, schedules[index], channels[index], starts[index]
            )
            assert np.array_equal(batched[index], solo)

    @pytest.mark.parametrize("kernel", ["dense", "bitpacked"])
    @pytest.mark.parametrize(
        "starts", [[9, 9, 9], [0, 13, 4090]], ids=["lock-step", "differing"]
    )
    def test_executor_equals_stitched_epochs(self, kernel, starts, force_kernel):
        """One executor call equals per-epoch static runs stitched together.

        ``repro.engine.run_schedule_batch`` splits the churn schedule at
        its epoch boundaries itself; replica ``r`` is the concatenation of
        one kernel run per epoch segment on that epoch's masked topology,
        with the noise keyed from the segment's global start round.
        """
        force_kernel(kernel)
        _, dynamic, _ = self._setup()
        n, rounds = dynamic.num_nodes, 40
        schedules = np.random.default_rng(8).random((3, n, rounds)) < 0.25
        channels = _channels(n)
        heard = run_schedule_batch(dynamic, schedules, channels, starts)
        stitched = np.empty_like(schedules)
        for r, first in enumerate(starts):
            for start, stop in dynamic.segments(first, rounds):
                lo, hi = start - first, stop - first
                stitched[r, :, lo:hi] = KERNELS[kernel].run_schedule(
                    dynamic.topology_at(start),
                    schedules[r, :, lo:hi],
                    channels[r],
                    start,
                )
        assert np.array_equal(heard, stitched)

    def test_batch_shape_validation(self):
        base, dynamic, schedule = self._setup()
        for topology in (base, dynamic):
            with pytest.raises(ConfigurationError):
                run_schedule_batch(topology, schedule, [None], [0])
            with pytest.raises(ConfigurationError):
                run_schedule_batch(
                    topology, schedule[None], [None, None], [0]
                )
            with pytest.raises(ConfigurationError):
                run_schedule_batch(topology, schedule[None], [None], [0, 0])

    def test_dynamic_rejects_1d_schedule(self):
        base, dynamic, _ = self._setup()
        for topology in (base, dynamic):
            with pytest.raises(ConfigurationError):
                run_schedule(topology, np.zeros(topology.num_nodes, dtype=bool))


class TestCrossBackendIdentity:
    """Every scenario channel is bit-identical across the two kernels."""

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("start", [0, 4090])
    def test_run_schedule_dense_vs_bitpacked(self, which, start):
        topology = Topology(path_graph(17))
        schedule = np.random.default_rng(1).random((17, 50)) < 0.3
        channel = _channels(17)[which]
        dense = KERNELS["dense"].run_schedule(topology, schedule, channel, start)
        packed = KERNELS["bitpacked"].run_schedule(
            topology, schedule, channel, start
        )
        assert np.array_equal(dense, packed)

    @pytest.mark.parametrize("backend", ["dense", "bitpacked"])
    def test_replica_batch_matches_solo(self, backend):
        topology = Topology(gnp_graph(15, 0.3, seed=3))
        rng = np.random.default_rng(2)
        schedules = rng.random((3, 15, 30)) < 0.25
        channels = _channels(15)
        starts = [5, 4090, 0]
        resolved = KERNELS[backend]
        batched = resolved.run_schedule_batch(
            topology, schedules, channels, starts
        )
        for index in range(3):
            solo = resolved.run_schedule(
                topology, schedules[index], channels[index], starts[index]
            )
            assert np.array_equal(batched[index], solo)

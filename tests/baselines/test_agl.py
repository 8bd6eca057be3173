"""Tests for the AGL-style full TDMA simulator and overhead formulas."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.algorithms import (
    VectorizedMaximalMatching,
    make_matching_algorithms,
    matching_field_widths,
)
from repro.baselines import (
    TDMABroadcastSimulator,
    agl_overhead,
    agl_repetitions,
    agl_setup,
    beauquier_overhead,
    beauquier_setup,
    greedy_distance2_coloring,
    ours_broadcast_overhead,
    ours_congest_overhead,
    simulate_round_tdma,
)
from repro.beeping import BernoulliNoise
from repro.errors import ConfigurationError
from repro.graphs import Topology, random_regular_graph
from repro.rng import derive_seed
from tests.core.reference_host import reference_run
from tests.core.test_transpiler import GossipSum


class TestRepetitions:
    def test_noiseless_is_one(self):
        assert agl_repetitions(100, 0.0) == 1

    def test_noisy_scales_with_log_n(self):
        assert agl_repetitions(256, 0.1) == 4 * 8

    def test_beta_scales(self):
        assert agl_repetitions(256, 0.1, beta=2) == 16


class TestSimulator:
    def test_matches_native_execution(self, regular12):
        from repro.congest import BroadcastCongestNetwork

        native = BroadcastCongestNetwork(regular12, message_bits=6).run(
            [GossipSum() for _ in range(12)], max_rounds=10
        )
        simulator = TDMABroadcastSimulator(
            regular12, message_bits=6, eps=0.0, seed=1
        )
        simulated = simulator.run_broadcast_congest(
            [GossipSum() for _ in range(12)], max_rounds=10
        )
        assert simulated.outputs == native.outputs
        assert simulated.stats.failed_rounds == 0

    def test_noisy_with_repetition(self, regular12):
        simulator = TDMABroadcastSimulator(
            regular12, message_bits=6, eps=0.1, seed=1
        )
        result = simulator.run_broadcast_congest(
            [GossipSum() for _ in range(12)], max_rounds=10
        )
        assert result.finished
        assert result.stats.failed_rounds == 0

    def test_noisy_run_equals_per_node_loop(self, regular12):
        """Without repetition rounds fail, so outputs depend on every flip."""
        eps, seed = 0.1, 1
        coloring = greedy_distance2_coloring(regular12)
        channel = BernoulliNoise(eps, seed=derive_seed(seed, "tdma-noise"))

        def tdma_round(broadcasts, round_offset):
            outcome = simulate_round_tdma(
                regular12,
                broadcasts,
                coloring,
                6,
                channel=channel,
                repetitions=1,
                start_round=round_offset,
            )
            return SimpleNamespace(
                decoded=outcome.decoded,
                beep_rounds_used=outcome.beep_rounds_used,
                success=outcome.success,
                phase1_errors=0,
                phase2_errors=int((~outcome.per_node_success).sum()),
                r_collision=False,
            )

        reference = reference_run(
            tdma_round,
            regular12,
            6,
            seed,
            [GossipSum() for _ in range(12)],
            max_rounds=10,
        )
        simulated = TDMABroadcastSimulator(
            regular12, message_bits=6, eps=eps, seed=seed, repetitions=1
        ).run_broadcast_congest([GossipSum() for _ in range(12)], max_rounds=10)
        assert reference.stats.failed_rounds > 0
        assert simulated.outputs == reference.outputs
        assert simulated.finished == reference.finished
        assert simulated.stats == reference.stats

    @pytest.mark.parametrize(
        "eps,repetitions,failed",
        [(0.05, None, False), (0.1, 1, True), (0.2, 3, True)],
    )
    def test_columnar_matching_equals_objects(
        self, regular12, eps, repetitions, failed
    ):
        """A columnar algorithm runs through TDMA exactly as its objects do.

        With the default repetitions at ε = 0.05 every round is clean;
        with fewer repetitions every round fails, so the outputs depend
        on every flip the two runs decode.
        """
        objects, budget = make_matching_algorithms(regular12)
        id_bits, value_bits = matching_field_widths(regular12.num_nodes)

        def run(algorithms):
            return TDMABroadcastSimulator(
                regular12,
                message_bits=budget,
                eps=eps,
                seed=3,
                repetitions=repetitions,
            ).run_broadcast_congest(algorithms, max_rounds=40)

        reference = run(objects)
        columnar = run(
            VectorizedMaximalMatching(id_bits=id_bits, value_bits=value_bits)
        )
        if failed:
            assert reference.stats.failed_rounds == 40
        else:
            assert reference.stats.failed_rounds == 0
        assert columnar.outputs == reference.outputs
        assert columnar.finished == reference.finished
        assert columnar.stats == reference.stats

    def test_overhead_property(self, regular12):
        simulator = TDMABroadcastSimulator(
            regular12, message_bits=6, eps=0.0, seed=1
        )
        assert simulator.overhead == simulator.num_colors * 7
        result = simulator.run_broadcast_congest(
            [GossipSum(horizon=2) for _ in range(12)], max_rounds=10
        )
        assert result.stats.overhead == simulator.overhead

    @pytest.mark.parametrize("ids", [[0] * 12, [-1] + list(range(1, 12))])
    def test_bad_ids_rejected(self, regular12, ids):
        with pytest.raises(ConfigurationError):
            TDMABroadcastSimulator(regular12, message_bits=6, ids=ids)

    def test_too_small_rejected(self):
        from repro.graphs import path_graph

        with pytest.raises(ConfigurationError):
            TDMABroadcastSimulator(Topology(path_graph(1)), message_bits=4)


class TestFormulas:
    def test_values_at_reference_point(self):
        # n = 256 (log n = 8), Delta = 16
        assert beauquier_setup(256, 16) == 16**6
        assert beauquier_overhead(256, 16) == 16**4 * 8
        assert agl_setup(256, 16) == 16**4 * 8
        assert agl_overhead(256, 16) == 16 * 8 * 256  # min{n, 256} = n
        assert ours_broadcast_overhead(256, 16) == 16 * 8
        assert ours_congest_overhead(256, 16) == 256 * 8

    def test_min_term_switches(self):
        # for Delta^2 < n, the min picks Delta^2
        assert agl_overhead(2**12, 16) == 16 * 12 * 256

    def test_improvement_factor(self):
        # paper: Theta(min{n/Delta, Delta}) improvement over [4]
        n, delta = 2**12, 16
        assert agl_overhead(n, delta) / ours_congest_overhead(n, delta) == delta

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ours_broadcast_overhead(1, 4)
        with pytest.raises(ConfigurationError):
            agl_overhead(16, 0)

"""Tests for the Theorem 11 transpiler (BeepSimulator)."""

from __future__ import annotations

import pytest

from repro.congest import BroadcastCongestAlgorithm
from repro.core import BeepSimulator, SimulationParameters
from repro.errors import ConfigurationError
from repro.graphs import Topology, path_graph, random_regular_graph
from tests.algorithms.per_node_oracle import BroadcastCongestNetwork


class GossipSum(BroadcastCongestAlgorithm):
    """Each round, broadcast (own id + round); sum everything heard for
    ``horizon`` rounds.  Deterministic given deliveries — ideal for testing
    that simulated executions match native ones."""

    def __init__(self, horizon: int = 3):
        self._horizon = horizon
        self._total = 0
        self._rounds = 0

    def broadcast(self, round_index):
        return (self.ctx.node_id + round_index) % 61

    def receive(self, round_index, messages):
        self._total += sum(messages)
        self._rounds += 1

    @property
    def finished(self):
        return self._rounds >= self._horizon

    def output(self):
        return self._total


class TestAgainstNativeEngine:
    def test_simulated_run_matches_native_noiseless(self, regular12):
        """Theorem 11's fidelity claim: when every round decodes, the
        simulated execution is identical to the Broadcast CONGEST one."""
        params = SimulationParameters(message_bits=6, max_degree=3, eps=0.0, c=3)
        native = BroadcastCongestNetwork(regular12, message_bits=6).run(
            [GossipSum() for _ in range(12)], max_rounds=10
        )
        simulated = BeepSimulator(regular12, params=params, seed=4).run_broadcast_congest(
            [GossipSum() for _ in range(12)], max_rounds=10
        )
        assert simulated.outputs == native.outputs
        assert simulated.finished
        assert simulated.stats.failed_rounds == 0

    def test_simulated_run_matches_native_noisy(self, regular12):
        params = SimulationParameters(message_bits=6, max_degree=3, eps=0.1, c=5)
        native = BroadcastCongestNetwork(regular12, message_bits=6).run(
            [GossipSum() for _ in range(12)], max_rounds=10
        )
        simulated = BeepSimulator(regular12, params=params, seed=4).run_broadcast_congest(
            [GossipSum() for _ in range(12)], max_rounds=10
        )
        assert simulated.stats.failed_rounds == 0
        assert simulated.outputs == native.outputs


class TestAccounting:
    def test_overhead_statistics(self, regular12):
        params = SimulationParameters(message_bits=6, max_degree=3, eps=0.0, c=3)
        result = BeepSimulator(regular12, params=params, seed=1).run_broadcast_congest(
            [GossipSum(horizon=4) for _ in range(12)], max_rounds=10
        )
        assert result.stats.simulated_rounds == 4
        assert result.stats.beep_rounds == 4 * params.rounds_per_simulated_round
        assert result.stats.overhead == params.rounds_per_simulated_round
        assert result.stats.success_rate == 1.0

    def test_round_budget_respected(self, regular12):
        params = SimulationParameters(message_bits=6, max_degree=3, eps=0.0, c=3)
        result = BeepSimulator(regular12, params=params, seed=1).run_broadcast_congest(
            [GossipSum(horizon=100) for _ in range(12)], max_rounds=3
        )
        assert not result.finished
        assert result.stats.simulated_rounds == 3


class TestConstruction:
    def test_default_params_derived(self, regular12):
        simulator = BeepSimulator(regular12, eps=0.1, seed=0)
        assert simulator.params.max_degree == regular12.max_degree
        assert simulator.params.eps == 0.1

    def test_too_small_network_rejected(self):
        t = Topology(path_graph(1))
        with pytest.raises(ConfigurationError):
            BeepSimulator(t)

    def test_duplicate_ids_rejected(self, regular12):
        with pytest.raises(ConfigurationError):
            BeepSimulator(regular12, ids=[0] * 12)

    def test_negative_ids_rejected(self, regular12):
        with pytest.raises(ConfigurationError):
            BeepSimulator(regular12, ids=[-1] + list(range(1, 12)))

    def test_algorithm_count_checked(self, regular12):
        simulator = BeepSimulator(regular12, seed=0)
        with pytest.raises(ConfigurationError):
            simulator.run_broadcast_congest([GossipSum()], max_rounds=1)

    def test_message_budget_enforced(self, regular12):
        params = SimulationParameters(message_bits=4, max_degree=3, eps=0.0, c=3)

        class TooWide(BroadcastCongestAlgorithm):
            def broadcast(self, round_index):
                return 1 << 10

            def receive(self, round_index, messages):
                pass

        simulator = BeepSimulator(regular12, params=params, seed=0)
        from repro.errors import MessageSizeError

        with pytest.raises(MessageSizeError):
            simulator.run_broadcast_congest(
                [TooWide() for _ in range(12)], max_rounds=1
            )

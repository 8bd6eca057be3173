"""End-to-end integration: full applications over the noisy beeping stack.

These tests exercise the complete Theorem 21 pipeline — a distributed
algorithm, the Corollary 12 wrapper where applicable, Algorithm 1's two
code phases, the beeping substrate with Bernoulli noise, and the Section 4
decoders — and check the *application-level* outputs.
"""

from __future__ import annotations

import pytest

from repro.algorithms import (
    VectorizedLubyMIS,
    VectorizedMaximalMatching,
    check_matching,
    check_mis,
    matching_field_widths,
    matching_message_bits,
    mis_field_widths,
    mis_message_bits,
)
from repro.core import BeepSimulator, SimulationParameters
from repro.graphs import (
    Topology,
    cycle_graph,
    grid_graph,
    random_regular_graph,
)
from repro.graphs.hard_instances import matching_hard_instance


def _matching(topology, ids):
    """Algorithm 3 with compact samples, and the message budget it needs."""
    n = topology.num_nodes
    id_bits, value_bits = matching_field_widths(n, ids, value_exponent=3)
    budget = matching_message_bits(n, ids, value_exponent=3)
    return VectorizedMaximalMatching(id_bits, value_bits), budget


def _mis(topology):
    """Luby's MIS, and the message budget it needs."""
    n = topology.num_nodes
    return VectorizedLubyMIS(*mis_field_widths(n)), mis_message_bits(n)


class TestMatchingOverBeeps:
    """Theorem 21: maximal matching in the noisy beeping model."""

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_regular_graph(self, eps):
        topology = Topology(random_regular_graph(12, 3, seed=2))
        ids = list(range(12))
        algorithm, budget = _matching(topology, ids)
        params = SimulationParameters(
            message_bits=budget, max_degree=3, eps=eps, c=5 if eps else 3
        )
        result = BeepSimulator(
            topology, params=params, seed=11
        ).run_broadcast_congest(algorithm, max_rounds=80)
        assert result.finished
        assert result.stats.failed_rounds == 0
        ok, reason = check_matching(topology, ids, result.outputs)
        assert ok, reason

    def test_grid_network(self):
        topology = Topology(grid_graph(3, 4))
        ids = list(range(12))
        algorithm, budget = _matching(topology, ids)
        params = SimulationParameters(
            message_bits=budget, max_degree=4, eps=0.05, c=4
        )
        result = BeepSimulator(
            topology, params=params, seed=3
        ).run_broadcast_congest(algorithm, max_rounds=80)
        ok, reason = check_matching(topology, ids, result.outputs)
        assert ok, reason

    def test_hard_instance_with_huge_ids(self):
        graph, ids_map = matching_hard_instance(2, 16, seed=5)
        topology = Topology(graph)
        ids = [ids_map[v] for v in range(4)]
        algorithm, budget = _matching(topology, ids)
        params = SimulationParameters(
            message_bits=budget, max_degree=2, eps=0.05, c=4
        )
        result = BeepSimulator(
            topology, params=params, seed=7, ids=ids
        ).run_broadcast_congest(algorithm, max_rounds=60)
        ok, reason = check_matching(topology, ids, result.outputs)
        assert ok, reason


class TestMISOverBeeps:
    def test_cycle(self):
        topology = Topology(cycle_graph(9))
        algorithm, budget = _mis(topology)
        params = SimulationParameters(
            message_bits=budget, max_degree=2, eps=0.05, c=4
        )
        result = BeepSimulator(
            topology, params=params, seed=2
        ).run_broadcast_congest(algorithm, max_rounds=90)
        assert result.finished
        ok, reason = check_mis(topology, result.outputs)
        assert ok, reason

    def test_regular_noisy(self):
        topology = Topology(random_regular_graph(10, 3, seed=4))
        algorithm, budget = _mis(topology)
        params = SimulationParameters(
            message_bits=budget, max_degree=3, eps=0.1, c=5
        )
        result = BeepSimulator(
            topology, params=params, seed=2
        ).run_broadcast_congest(algorithm, max_rounds=90)
        assert result.finished
        ok, reason = check_mis(topology, result.outputs)
        assert ok, reason


class TestOverheadClaims:
    def test_measured_overhead_exceeds_corollary16_bound(self):
        """Consistency between upper and lower bounds: the measured
        per-round cost sits above the Corollary 16 floor."""
        from repro.lower_bounds import simulation_overhead_bounds

        topology = Topology(random_regular_graph(12, 3, seed=2))
        params = SimulationParameters.for_network(12, 3, eps=0.1, gamma=1)
        bc_floor, _ = simulation_overhead_bounds(3, 12)
        assert params.overhead >= bc_floor

    def test_noise_costs_only_constant_factor(self):
        """The paper's headline: noise does not change the asymptotics —
        in our implementation it changes only the constant c."""
        noiseless = SimulationParameters.for_network(64, 4, eps=0.0, gamma=1)
        noisy = SimulationParameters.for_network(64, 4, eps=0.1, gamma=1)
        ratio = noisy.overhead / noiseless.overhead
        assert ratio == pytest.approx((noisy.c / noiseless.c) ** 3)
        assert ratio < 10

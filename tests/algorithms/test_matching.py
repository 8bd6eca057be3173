"""Tests for Algorithm 3 (maximal matching in Broadcast CONGEST)."""

from __future__ import annotations

import math

import pytest

from repro.algorithms import (
    UNMATCHED,
    check_matching,
    matching_message_bits,
    run_matching_bc,
)
from repro.graphs import (
    Topology,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)

from per_node_oracle import BroadcastCongestNetwork, make_matching_algorithms


class TestValidityAcrossGraphs:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: Topology(path_graph(2)),
            lambda: Topology(path_graph(9)),
            lambda: Topology(cycle_graph(8)),
            lambda: Topology(star_graph(7)),
            lambda: Topology(complete_graph(7)),
            lambda: Topology(gnp_graph(30, 0.12, seed=4)),
            lambda: Topology(random_regular_graph(24, 5, seed=1)),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_output_is_maximal_matching(self, factory, seed):
        topology = factory()
        result = run_matching_bc(topology, seed=seed)
        assert result.finished
        ok, reason = check_matching(
            topology, list(range(topology.num_nodes)), result.outputs
        )
        assert ok, reason

    def test_path2_matches_the_edge(self):
        topology = Topology(path_graph(2))
        result = run_matching_bc(topology, seed=0)
        assert result.outputs == [1, 0]

    def test_isolated_nodes_unmatched(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        topology = Topology(graph)
        result = run_matching_bc(topology, seed=0)
        assert result.outputs[2] == UNMATCHED
        assert result.outputs[3] == UNMATCHED
        assert result.outputs[0] == 1


class TestRoundComplexity:
    def test_rounds_scale_with_log_n(self):
        for n in (16, 64):
            topology = Topology(gnp_graph(n, 4.0 / n, seed=2))
            result = run_matching_bc(topology, seed=3)
            assert result.finished
            # generous: 4 BC rounds per iteration, <= 4 log n + O(1) iters
            assert result.rounds_used <= 1 + 4 * (4 * math.ceil(math.log2(n)) + 4)

    def test_star_resolves_in_one_iteration(self):
        topology = Topology(star_graph(9))
        result = run_matching_bc(topology, seed=0)
        # announcement + one 4-phase iteration
        assert result.rounds_used <= 5


class TestCustomIds:
    def test_non_contiguous_ids(self):
        topology = Topology(path_graph(4))
        ids = [100, 7, 55, 23]
        algorithms, budget = make_matching_algorithms(topology, ids)
        network = BroadcastCongestNetwork(topology, ids=ids, message_bits=budget)
        result = network.run(algorithms, max_rounds=60)
        ok, reason = check_matching(topology, ids, result.outputs)
        assert ok, reason


class TestMessageBudget:
    def test_matching_message_bits_formula(self):
        # tag 2 + two ids + 9*log n value bits
        assert matching_message_bits(64) == 2 + 2 * 6 + 9 * 6

    def test_budget_matches_make(self):
        topology = Topology(path_graph(6))
        _, budget = make_matching_algorithms(topology)
        assert budget == matching_message_bits(6)

    def test_value_exponent_shrinks_budget(self):
        topology = Topology(path_graph(6))
        _, wide = make_matching_algorithms(topology, value_exponent=9)
        _, narrow = make_matching_algorithms(topology, value_exponent=3)
        assert narrow < wide


class TestCheckMatching:
    def test_detects_asymmetry(self):
        topology = Topology(path_graph(3))
        ok, reason = check_matching(topology, [0, 1, 2], [1, UNMATCHED, UNMATCHED])
        assert not ok
        assert "symmetry" in reason

    def test_detects_non_edge(self):
        topology = Topology(path_graph(3))
        ok, reason = check_matching(topology, [0, 1, 2], [2, UNMATCHED, 0])
        assert not ok
        assert "adjacent" in reason

    def test_detects_non_maximality(self):
        topology = Topology(path_graph(2))
        ok, reason = check_matching(topology, [0, 1], [UNMATCHED, UNMATCHED])
        assert not ok
        assert "maximality" in reason

    def test_detects_unknown_id(self):
        topology = Topology(path_graph(2))
        ok, reason = check_matching(topology, [0, 1], [77, UNMATCHED])
        assert not ok
        assert "unknown" in reason

    def test_accepts_valid(self):
        topology = Topology(path_graph(4))
        ok, _ = check_matching(topology, [0, 1, 2, 3], [1, 0, 3, 2])
        assert ok

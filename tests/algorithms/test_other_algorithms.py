"""Tests for the companion Broadcast CONGEST algorithms (MIS, colouring,
BFS, leader election) and their checkers."""

from __future__ import annotations

import pytest

from repro.algorithms import (
    check_bfs_tree,
    check_coloring,
    check_leader_election,
    check_mis,
    run_bfs_bc,
    run_coloring_bc,
    run_leader_election_bc,
    run_mis_bc,
)
from repro.graphs import (
    Topology,
    complete_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)

GRAPHS = [
    ("path", lambda: Topology(path_graph(8))),
    ("cycle", lambda: Topology(cycle_graph(9))),
    ("star", lambda: Topology(star_graph(8))),
    ("complete", lambda: Topology(complete_graph(6))),
    ("gnp", lambda: Topology(gnp_graph(24, 0.15, seed=2))),
    ("regular", lambda: Topology(random_regular_graph(20, 4, seed=3))),
]


class TestLubyMIS:
    @pytest.mark.parametrize("name,factory", GRAPHS)
    def test_valid_mis(self, name, factory):
        topology = factory()
        result = run_mis_bc(topology, seed=1)
        assert result.finished, name
        ok, reason = check_mis(topology, result.outputs)
        assert ok, f"{name}: {reason}"

    def test_isolated_node_joins(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        graph.add_edge(0, 1)
        result = run_mis_bc(Topology(graph), seed=0)
        assert result.outputs[2] is True

    def test_star_hub_or_all_leaves(self):
        topology = Topology(star_graph(6))
        result = run_mis_bc(topology, seed=2)
        outputs = result.outputs
        if outputs[0]:
            assert not any(outputs[1:])
        else:
            assert all(outputs[1:])

    def test_check_mis_detects_dependence(self):
        topology = Topology(path_graph(3))
        ok, reason = check_mis(topology, [True, True, False])
        assert not ok and "independence" in reason

    def test_check_mis_detects_non_maximal(self):
        topology = Topology(path_graph(3))
        ok, reason = check_mis(topology, [False, False, True])
        assert not ok and "maximality" in reason

    def test_check_mis_detects_undecided(self):
        topology = Topology(path_graph(2))
        ok, reason = check_mis(topology, [None, True])
        assert not ok and "undecided" in reason


class TestColoring:
    @pytest.mark.parametrize("name,factory", GRAPHS)
    def test_valid_delta_plus_one_coloring(self, name, factory):
        topology = factory()
        result = run_coloring_bc(topology, seed=1)
        assert result.finished, name
        ok, reason = check_coloring(
            topology, result.outputs, topology.max_degree + 1
        )
        assert ok, f"{name}: {reason}"

    def test_check_coloring_detects_conflict(self):
        topology = Topology(path_graph(2))
        ok, reason = check_coloring(topology, [1, 1], 3)
        assert not ok and "monochromatic" in reason

    def test_check_coloring_detects_overflow(self):
        topology = Topology(path_graph(2))
        ok, reason = check_coloring(topology, [0, 5], 3)
        assert not ok and "outside" in reason

    def test_check_coloring_detects_uncolored(self):
        topology = Topology(path_graph(2))
        ok, reason = check_coloring(topology, [None, 1], 3)
        assert not ok and "uncoloured" in reason


class TestBFS:
    @pytest.mark.parametrize("name,factory", GRAPHS)
    def test_valid_bfs_tree(self, name, factory):
        topology = factory()
        result = run_bfs_bc(topology, root=0, seed=1)
        ok, reason = check_bfs_tree(
            topology, list(range(topology.num_nodes)), 0, result.outputs
        )
        assert ok, f"{name}: {reason}"

    def test_grid_distances(self):
        topology = Topology(grid_graph(3, 4))
        result = run_bfs_bc(topology, root=0, seed=0)
        distances = [d for d, _ in result.outputs]
        assert distances[0] == 0
        assert distances[11] == 2 + 3  # opposite corner

    def test_disconnected_marked_unreachable(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        result = run_bfs_bc(Topology(graph), root=0, seed=0)
        assert result.outputs[3] == (-1, None)

    def test_check_bfs_detects_wrong_distance(self):
        topology = Topology(path_graph(3))
        ok, reason = check_bfs_tree(
            topology, [0, 1, 2], 0, [(0, None), (1, 0), (1, 0)]
        )
        assert not ok and "distance" in reason


class TestLeaderElection:
    @pytest.mark.parametrize("name,factory", GRAPHS)
    def test_each_component_elects_its_max_id(self, name, factory):
        import networkx as nx

        topology = factory()
        result = run_leader_election_bc(topology, seed=1)
        graph = nx.Graph(topology.edges())
        graph.add_nodes_from(range(topology.num_nodes))
        for component in nx.connected_components(graph):
            expected = max(component)
            for v in component:
                assert result.outputs[v] == expected, name

    def test_custom_ids(self):
        topology = Topology(path_graph(4))
        result = run_leader_election_bc(topology, ids=[5, 90, 2, 11])
        assert set(result.outputs) == {90}

    def test_per_component_leaders(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        result = run_leader_election_bc(Topology(graph))
        assert result.outputs[0] == result.outputs[1] == 1
        assert result.outputs[2] == result.outputs[3] == 3

    def test_check_leader_election_on_many_components(self):
        import networkx as nx

        # 60 three-node paths, then 20 isolated nodes, with shuffled IDs.
        graph = nx.disjoint_union_all([path_graph(3)] * 60)
        graph.add_nodes_from(range(180, 200))
        topology = Topology(graph)
        ids = [(37 * v + 11) % 200 for v in range(200)]
        leaders = [max(ids[3 * (v // 3) : 3 * (v // 3) + 3]) for v in range(180)]
        outputs = leaders + ids[180:]
        assert check_leader_election(topology, ids, outputs) == (True, "ok")
        planted = list(outputs)
        planted[151] = ids[151] if ids[151] != leaders[151] else -1
        ok, why = check_leader_election(topology, ids, planted)
        assert not ok
        assert why == (
            f"node {ids[151]} elected {planted[151]}, expected {leaders[151]}"
        )

    def test_check_leader_election_reports_lowest_wrong_index(self):
        import networkx as nx

        # Component {0, 5} comes first by its lowest node, but node 2 is
        # the lowest-index wrong node.
        graph = nx.Graph([(0, 5), (1, 2)])
        graph.add_nodes_from(range(6))
        ids = [10, 20, 30, 40, 50, 60]
        outputs = [60, 30, 20, 40, 50, 10]
        ok, why = check_leader_election(Topology(graph), ids, outputs)
        assert (ok, why) == (False, "node 30 elected 20, expected 30")

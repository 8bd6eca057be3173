"""Tests for the executable topology wrapper."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.graphs import Topology, gnp_graph, path_graph, star_graph


class TestConstruction:
    def test_basic_properties(self):
        t = Topology(path_graph(5))
        assert t.num_nodes == 5
        assert t.num_edges == 4
        assert t.max_degree == 2

    def test_rejects_directed(self):
        with pytest.raises(ConfigurationError):
            Topology(nx.DiGraph([(0, 1)]))

    def test_rejects_gap_labels(self):
        graph = nx.Graph()
        graph.add_edge(0, 2)
        with pytest.raises(ConfigurationError):
            Topology(graph)

    def test_rejects_self_loops(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        graph.add_edge(0, 0)
        with pytest.raises(ConfigurationError):
            Topology(graph)

    def test_empty_graph(self):
        graph = nx.Graph()
        t = Topology(graph)
        assert t.num_nodes == 0
        assert t.max_degree == 0

    def test_isolated_nodes_kept(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        t = Topology(graph)
        assert t.num_nodes == 4
        assert t.degrees[3] == 0


class TestAccessors:
    def test_neighbors_sorted(self):
        t = Topology(star_graph(6))
        assert list(t.neighbors[0]) == [1, 2, 3, 4, 5]
        assert list(t.neighbors[3]) == [0]

    def test_edges_sorted_pairs(self):
        t = Topology(path_graph(4))
        assert t.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_are_adjacent(self):
        t = Topology(path_graph(4))
        assert t.are_adjacent(1, 2)
        assert not t.are_adjacent(0, 2)

    def test_degrees_vector(self):
        t = Topology(star_graph(5))
        assert list(t.degrees) == [4, 1, 1, 1, 1]


class TestNeighborOr:
    def test_vector_star(self):
        t = Topology(star_graph(5))
        beeps = np.array([False, True, False, False, False])
        heard = t.neighbor_or(beeps)
        # only the hub hears the leaf
        assert list(heard) == [True, False, False, False, False]

    def test_own_beep_excluded(self):
        t = Topology(path_graph(3))
        beeps = np.array([False, True, False])
        heard = t.neighbor_or(beeps)
        assert not heard[1]
        assert heard[0] and heard[2]

    def test_matrix_form_matches_columns(self):
        t = Topology(gnp_graph(12, 0.3, seed=1))
        rng = np.random.default_rng(0)
        beeps = rng.random((12, 7)) < 0.4
        block = t.neighbor_or(beeps)
        for column in range(7):
            assert np.array_equal(block[:, column], t.neighbor_or(beeps[:, column]))

    def test_wrong_shape_rejected(self):
        t = Topology(path_graph(3))
        with pytest.raises(ConfigurationError):
            t.neighbor_or(np.zeros(4, dtype=bool))

    @settings(max_examples=25)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_neighbor_or_matches_bruteforce(self, graph_seed, beep_seed):
        t = Topology(gnp_graph(10, 0.3, seed=graph_seed % 1000))
        rng = np.random.default_rng(beep_seed)
        beeps = rng.random(10) < 0.5
        heard = t.neighbor_or(beeps)
        for v in range(10):
            expected = any(beeps[int(u)] for u in t.neighbors[v])
            assert heard[v] == expected

"""Tests for the executable topology wrapper.

``Topology`` keeps only its CSR adjacency; the oracle tests hold that CSR
and every accessor derived from it to the ``networkx`` graph it was
built from, with networkx's own CSR export as the reference.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.graphs import (
    Topology,
    build_family_graph,
    cycle_graph,
    family_names,
    gnp_graph,
    path_graph,
    star_graph,
)

#: Two feasible sizes per zoo family (tree sizes, powers of two, ...).
ZOO_SIZES = {
    "barbell": (9, 40),
    "caterpillar": (8, 40),
    "complete": (6, 24),
    "cycle": (8, 40),
    "disk": (10, 48),
    "expander": (8, 48),
    "gnp": (10, 48),
    "grid": (9, 48),
    "hypercube": (8, 64),
    "path": (8, 40),
    "planted": (8, 40),
    "powerlaw": (10, 48),
    "regular": (8, 48),
    "star": (8, 40),
    "torus": (9, 49),
    "tree": (7, 63),
}

ZOO_CASES = [
    (family, n, seed)
    for family, sizes in sorted(ZOO_SIZES.items())
    for n in sizes
    for seed in (0, 1)
]


def reference_csr(graph: nx.Graph):
    """networkx's CSR export of ``graph``: the oracle for ``adjacency``."""
    return nx.to_scipy_sparse_array(
        graph, nodelist=range(graph.number_of_nodes()), dtype=bool, format="csr"
    )


def assert_csr_matches(topology: Topology, graph: nx.Graph) -> None:
    """``topology``'s CSR equals networkx's, in value and int64 dtype."""
    reference = reference_csr(graph)
    adjacency = topology.adjacency
    assert adjacency.dtype == bool
    assert adjacency.shape == reference.shape
    for name in ("indptr", "indices"):
        assert getattr(adjacency, name).dtype == np.int64
        assert np.array_equal(getattr(adjacency, name), getattr(reference, name))


def test_every_zoo_family_has_sizes():
    """New zoo families must be added to the oracle matrix."""
    assert set(ZOO_SIZES) == set(family_names())


class TestNetworkxOracle:
    @pytest.mark.parametrize("family,n,seed", ZOO_CASES)
    def test_csr_equals_networkx_export(self, family, n, seed):
        graph = build_family_graph(family, n, seed=seed)
        assert_csr_matches(Topology(graph), graph)
        # from_edges builds the same CSR from the bare edge list, given
        # in reverse orientation and twice over.
        edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
        twice = np.concatenate((edges[:, ::-1], edges))
        assert_csr_matches(Topology.from_edges(n, twice), graph)

    @pytest.mark.parametrize("family,n,seed", ZOO_CASES)
    def test_accessors_agree_with_graph(self, family, n, seed):
        graph = build_family_graph(family, n, seed=seed)
        topology = Topology(graph)
        assert topology.degrees.tolist() == [graph.degree[v] for v in range(n)]
        assert topology.num_edges == graph.number_of_edges()
        edges = topology.edges()
        assert edges == sorted(edges)
        assert set(edges) == {(min(u, v), max(u, v)) for u, v in graph.edges()}
        assert all(type(u) is int and type(v) is int for u, v in edges)
        for v in range(n):
            assert topology.neighbors[v].tolist() == sorted(graph.neighbors(v))
        if n <= 16:
            for u in range(n):
                for v in range(n):
                    assert topology.are_adjacent(u, v) == graph.has_edge(u, v)

    @pytest.mark.parametrize("family,n,seed", ZOO_CASES)
    def test_distances_equal_shortest_paths(self, family, n, seed):
        graph = build_family_graph(family, n, seed=seed)
        topology = Topology(graph)
        for source in range(n):
            expected = nx.single_source_shortest_path_length(graph, source)
            distances = topology.distances_from(source)
            assert distances.dtype == np.int64
            assert distances.tolist() == [expected.get(v, -1) for v in range(n)]

    def test_distances_on_a_disconnected_graph(self):
        graph = nx.disjoint_union(path_graph(5), cycle_graph(6))
        graph.add_node(11)  # isolated
        topology = Topology(graph)
        for source in range(12):
            expected = nx.single_source_shortest_path_length(graph, source)
            assert topology.distances_from(source).tolist() == [
                expected.get(v, -1) for v in range(12)
            ]
        assert topology.distances_from(11).tolist() == [-1] * 11 + [0]

    def test_distances_on_a_long_path(self):
        graph = path_graph(2000)
        topology = Topology(graph)
        for source in (0, 1234, 1999):
            expected = nx.single_source_shortest_path_length(graph, source)
            distances = topology.distances_from(source)
            assert distances.dtype == np.int64
            assert distances.tolist() == [expected[v] for v in range(2000)]

    def test_distances_reject_foreign_source(self):
        topology = Topology(path_graph(3))
        for source in (-1, 3):
            with pytest.raises(ConfigurationError, match="out of range"):
                topology.distances_from(source)


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
        assert t.num_edges == 0
        assert t.edges() == []
        assert t.neighbors == []
        assert t.degrees.size == 0
        assert t.adjacency.shape == (0, 0)
        assert t.adjacency.indptr.tolist() == [0]
        assert t.adjacency.indptr.dtype == t.adjacency.indices.dtype == np.int64
        assert Topology.from_edges(0, []).adjacency.shape == (0, 0)

    def test_isolated_nodes_kept(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        t = Topology(graph)
        assert t.num_nodes == 4
        assert t.degrees[3] == 0
        assert t.adjacency.indptr.tolist() == [0, 1, 2, 2, 2]
        assert t.neighbors[2].size == t.neighbors[3].size == 0
        assert_csr_matches(t, graph)

    def test_multigraph_parallel_edges_collapse(self):
        graph = nx.MultiGraph([(0, 1), (1, 0), (1, 2), (1, 2), (2, 3)])
        t = Topology(graph)
        assert t.num_edges == 3
        assert t.edges() == [(0, 1), (1, 2), (2, 3)]
        assert t.degrees.tolist() == [1, 2, 2, 1]
        assert_csr_matches(t, nx.Graph(graph))

    def test_from_edges_rejects_foreign_endpoints(self):
        for edges in ([(0, 3)], [(-1, 0)], [(3, 4)]):
            with pytest.raises(ConfigurationError, match="endpoints"):
                Topology.from_edges(3, edges)

    def test_from_edges_rejects_self_loops(self):
        with pytest.raises(ConfigurationError, match="self-loops"):
            Topology.from_edges(3, [(0, 1), (2, 2)])

    def test_no_graph_attribute(self):
        t = Topology(path_graph(3))
        assert not hasattr(t, "graph")
        with pytest.raises(AttributeError):
            t.graph  # noqa: B018 - the read itself is the check


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

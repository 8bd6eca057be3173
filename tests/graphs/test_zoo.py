"""Topology-zoo invariants: every family honours its declared promises.

Property tests (hypothesis) pin the catalog contract down: for any
family, size, and seed, :func:`build_family_graph` either raises a clean
:class:`ConfigurationError` (never a networkx traceback) or returns a
graph with exactly ``n`` consecutive node labels that satisfies the
family's connectivity promise and degree bound — and is bit-identical
under the same derived seed.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graphs import (
    barbell_graph,
    build_family_graph,
    caterpillar_graph,
    expander_graph,
    family_names,
    get_family,
    hypercube_graph,
    powerlaw_graph,
    topology_families,
    torus_graph,
)
from repro.graphs.validation import assert_valid_topology, max_degree

ZOO = family_names()


class TestCatalog:
    def test_all_families_registered(self):
        expected = {
            "barbell",
            "caterpillar",
            "complete",
            "cycle",
            "disk",
            "expander",
            "gnp",
            "grid",
            "hypercube",
            "path",
            "planted",
            "powerlaw",
            "regular",
            "star",
            "torus",
            "tree",
        }
        assert set(ZOO) == expected

    def test_unknown_family_lists_known(self):
        with pytest.raises(ConfigurationError) as excinfo:
            build_family_graph("moebius", 10)
        message = str(excinfo.value)
        assert "unknown topology family 'moebius'" in message
        for name in ("expander", "torus", "powerlaw"):
            assert name in message
        assert "\n" not in message  # one-line diagnostic

    def test_unknown_param_lists_allowed(self):
        with pytest.raises(ConfigurationError) as excinfo:
            build_family_graph("expander", 16, params={"diameter": 2})
        message = str(excinfo.value)
        assert "no parameter 'diameter'" in message and "degree" in message

    def test_bad_param_type_rejected(self):
        with pytest.raises(ConfigurationError):
            build_family_graph("regular", 16, params={"degree": "three"})
        with pytest.raises(ConfigurationError):
            build_family_graph("regular", 16, params={"degree": True})
        with pytest.raises(ConfigurationError):
            build_family_graph("regular", 16, params={"degree": 2.5})

    def test_bad_n_rejected(self):
        with pytest.raises(ConfigurationError):
            build_family_graph("cycle", 0)
        with pytest.raises(ConfigurationError):
            build_family_graph("cycle", "12")
        with pytest.raises(ConfigurationError):
            build_family_graph("cycle", True)

    def test_every_family_has_description_and_citation(self):
        for family in topology_families():
            assert family.description
            assert family.citation

    @given(name=st.sampled_from(ZOO), n=st.integers(2, 48), seed=st.integers(0, 4))
    @settings(max_examples=120)
    def test_build_validated_or_cleanly_rejected(self, name, n, seed):
        # The core zoo contract: any (family, n, seed) either raises a
        # one-line ConfigurationError or yields a graph honouring every
        # declared promise.
        family = get_family(name)
        try:
            graph = build_family_graph(name, n, seed=seed)
        except ConfigurationError as error:
            assert "\n" not in str(error)
            return
        assert graph.number_of_nodes() == n
        assert_valid_topology(graph)
        if family.connected and n > 1:
            assert nx.is_connected(graph)
        if family.degree_bound is not None:
            bound = family.degree_bound(n, family.resolve_params(None))
            assert max_degree(graph) <= bound

    @given(name=st.sampled_from(ZOO), n=st.integers(2, 40), seed=st.integers(0, 3))
    @settings(max_examples=60)
    def test_build_deterministic_under_seed(self, name, n, seed):
        try:
            first = build_family_graph(name, n, seed=seed)
        except ConfigurationError:
            return
        second = build_family_graph(name, n, seed=seed)
        assert set(first.edges) == set(second.edges)


class TestExpander:
    def test_regular_and_connected(self):
        graph = expander_graph(24, degree=3, seed=1)
        assert all(degree == 3 for _, degree in graph.degree)
        assert nx.is_connected(graph)

    def test_seed_changes_lift(self):
        a = expander_graph(32, degree=3, seed=1)
        b = expander_graph(32, degree=3, seed=2)
        assert set(a.edges) != set(b.edges)

    def test_base_case_is_complete_graph(self):
        graph = expander_graph(4, degree=3, seed=0)
        assert graph.number_of_edges() == 6

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            expander_graph(10, degree=3, seed=0)  # not a multiple of 4
        with pytest.raises(ConfigurationError):
            expander_graph(8, degree=2, seed=0)  # degree < 3


class TestHypercube:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_log_regular(self, n):
        graph = hypercube_graph(n)
        dimension = n.bit_length() - 1
        assert all(degree == dimension for _, degree in graph.degree)
        assert nx.is_connected(graph)

    def test_non_power_of_two_rejected(self):
        for n in (0, 1, 3, 12):
            with pytest.raises(ConfigurationError):
                hypercube_graph(n)


class TestTorus:
    def test_four_regular(self):
        graph = torus_graph(16)
        assert all(degree == 4 for _, degree in graph.degree)
        assert nx.is_connected(graph)

    def test_explicit_rows(self):
        graph = torus_graph(27, rows=3)
        assert graph.number_of_nodes() == 27
        assert all(degree == 4 for _, degree in graph.degree)

    def test_prime_rejected(self):
        with pytest.raises(ConfigurationError):
            torus_graph(13)

    def test_bad_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            torus_graph(16, rows=8)  # cols would be 2 < 3


class TestBarbellAndCaterpillar:
    def test_barbell_shape(self):
        graph = barbell_graph(12)  # clique = 4, path = 4
        assert graph.number_of_nodes() == 12
        assert max_degree(graph) == 4
        assert nx.is_connected(graph)

    def test_barbell_too_small(self):
        with pytest.raises(ConfigurationError):
            barbell_graph(5)

    def test_caterpillar_is_tree_with_bounded_degree(self):
        graph = caterpillar_graph(17, legs=2)
        assert nx.is_tree(graph)
        assert max_degree(graph) <= 5  # legs + 3

    def test_caterpillar_too_small(self):
        with pytest.raises(ConfigurationError):
            caterpillar_graph(3, legs=2)


class TestPowerlaw:
    def test_connected_and_reproducible(self):
        a = powerlaw_graph(40, attachment=2, seed=3)
        b = powerlaw_graph(40, attachment=2, seed=3)
        assert nx.is_connected(a)
        assert set(a.edges) == set(b.edges)

    def test_bad_attachment_rejected(self):
        with pytest.raises(ConfigurationError):
            powerlaw_graph(10, attachment=0)
        with pytest.raises(ConfigurationError):
            powerlaw_graph(10, attachment=10)

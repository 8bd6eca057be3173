"""Graph validation helpers shared by generators, simulators, and tests."""

from __future__ import annotations

import networkx as nx

from ..errors import ConfigurationError

__all__ = ["assert_valid_topology", "max_degree", "relabel_consecutive"]


def assert_valid_topology(graph: nx.Graph) -> None:
    """Raise :class:`ConfigurationError` unless ``graph`` is simulator-ready.

    Requirements: undirected, no self-loops (parallel edges are allowed),
    nodes ``0..n-1``.
    """
    if graph.is_directed():
        raise ConfigurationError("graph must be undirected")
    n = graph.number_of_nodes()
    if sorted(graph.nodes) != list(range(n)):
        raise ConfigurationError(
            "graph nodes must be exactly 0..n-1; "
            "use graphs.relabel_consecutive first"
        )
    for u, v in graph.edges():
        if u == v:
            raise ConfigurationError(f"self-loop at node {u} is not allowed")


def max_degree(graph: nx.Graph) -> int:
    """Return ``Δ``, the maximum degree (0 for an empty/edgeless graph)."""
    if graph.number_of_nodes() == 0:
        return 0
    return max(degree for _, degree in graph.degree)


def relabel_consecutive(graph: nx.Graph) -> nx.Graph:
    """Return a copy of ``graph`` with nodes relabelled to ``0..n-1``.

    Nodes are ordered by their sort order when comparable, falling back to
    string order otherwise, so relabelling is deterministic.
    """
    nodes = list(graph.nodes)
    try:
        nodes.sort()
    except TypeError:
        nodes.sort(key=str)
    mapping = {node: index for index, node in enumerate(nodes)}
    return nx.relabel_nodes(graph, mapping)

"""Executable topology: CSR adjacency built from a ``networkx`` graph.

The beeping and CONGEST simulators both run on :class:`Topology`, which
precomputes the structures every round touches: a boolean CSR adjacency
matrix (for vectorised OR-of-neighbours), per-node neighbour lists, and
degree statistics.
"""

from __future__ import annotations

from functools import cached_property

import networkx as nx
import numpy as np
import scipy.sparse as sp

from ..errors import ConfigurationError

__all__ = ["Topology"]


class Topology:
    """An immutable, simulator-ready view of an undirected network.

    Parameters
    ----------
    graph:
        An undirected simple graph whose nodes are exactly ``0..n-1``.
        Self-loops are rejected: a device does not hear its own antenna in
        the beeping model (its own beeps are accounted for separately, per
        the paper's "receives a 1 if it beeps itself" convention).
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.is_directed():
            raise ConfigurationError("topology must be an undirected graph")
        n = graph.number_of_nodes()
        if sorted(graph.nodes) != list(range(n)):
            raise ConfigurationError(
                "topology nodes must be labelled 0..n-1; "
                "use graphs.relabel_consecutive first"
            )
        if any(u == v for u, v in graph.edges):
            raise ConfigurationError("topology must not contain self-loops")
        self._graph = nx.Graph()
        self._graph.add_nodes_from(range(n))
        self._graph.add_edges_from(graph.edges)
        self._num_nodes = n

    @property
    def num_nodes(self) -> int:
        """Number of devices ``n``."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of communication links ``m``."""
        return self._graph.number_of_edges()

    @property
    def graph(self) -> nx.Graph:
        """The underlying ``networkx`` graph (do not mutate)."""
        return self._graph

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Boolean CSR adjacency matrix of shape ``(n, n)``."""
        if self.num_nodes == 0:
            return sp.csr_matrix((0, 0), dtype=bool)
        matrix = nx.to_scipy_sparse_array(
            self._graph, nodelist=range(self.num_nodes), dtype=bool, format="csr"
        )
        return sp.csr_matrix(matrix)

    @cached_property
    def neighbors(self) -> list[np.ndarray]:
        """Per-node sorted neighbour index arrays."""
        indptr = self.adjacency.indptr
        indices = self.adjacency.indices
        return [
            np.sort(indices[indptr[v] : indptr[v + 1]]) for v in range(self.num_nodes)
        ]

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree vector."""
        return np.asarray(
            [self._graph.degree[v] for v in range(self.num_nodes)], dtype=np.int64
        )

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Δ`` of the network (0 for edgeless graphs)."""
        if self.num_nodes == 0:
            return 0
        return int(self.degrees.max(initial=0))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(min, max)`` pairs."""
        return [tuple(sorted(edge)) for edge in self._graph.edges]

    def shard_plan(self, shards: int):
        """The ``shards``-way hash partition of this topology, cached.

        Builds (once per shard count) the
        :class:`~repro.engine.sharded.ShardPlan` the sharded execution
        tier runs on — deterministic hash ownership, per-rank CSR shards,
        halo and exchange maps.  Repeated sharded runs over one topology
        reuse the cached plan; the coordinator also keys its loaded
        worker state on the plan's identity.
        """
        cache = self.__dict__.setdefault("_shard_plans", {})
        plan = cache.get(shards)
        if plan is None:
            from ..engine.sharded import build_shard_plan

            plan = build_shard_plan(self, shards)
            cache[shards] = plan
        return plan

    def are_adjacent(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` share a link."""
        return self._graph.has_edge(u, v)

    def neighbor_or(self, beeps: np.ndarray) -> np.ndarray:
        """Carrier-sensing primitive: for each node, OR of neighbours' beeps.

        Given a boolean vector (or ``(n, r)`` matrix, one column per round)
        of who beeps, return a same-shaped array whose entry for node ``v``
        is ``True`` iff at least one *neighbour* of ``v`` beeped.  A node's
        own beep does not contribute to its own entry.
        """
        beeps = np.asarray(beeps)
        if beeps.shape[0] != self.num_nodes:
            raise ConfigurationError(
                f"beep vector has {beeps.shape[0]} rows, expected {self.num_nodes}"
            )
        counts = self.adjacency @ beeps.astype(np.int64)
        return counts > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(n={self.num_nodes}, m={self.num_edges}, "
            f"max_degree={self.max_degree})"
        )

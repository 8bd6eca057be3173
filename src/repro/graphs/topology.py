"""Executable topology: a sorted boolean CSR adjacency and nothing else.

The beeping and CONGEST simulators both run on :class:`Topology`, whose
only state is that CSR (int64 ``indptr``/``indices``, rows sorted);
neighbour lists, degrees, edges, adjacency tests and BFS distances are
read from it.  ``Topology(graph)`` builds it from a ``networkx`` graph,
:meth:`Topology.from_edges` from an ``(m, 2)`` edge array.
"""

from __future__ import annotations

from functools import cached_property

import networkx as nx
import numpy as np
import scipy.sparse as sp

from ..errors import ConfigurationError
from ..packing import sorted_unique
from .validation import assert_valid_topology

__all__ = ["Topology"]


def _sorted_csr(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """The ``(n, n)`` bool CSR of valid ``(m, 2)`` int64 edges.

    The sorted unique ``row * n + column`` keys of both directions drop
    duplicate links and write every row in ascending order.
    """
    u, v = edges[:, 0], edges[:, 1]
    keys = sorted_unique(np.concatenate((u * n + v, v * n + u)))
    rows, indices = np.divmod(keys, n)
    indptr = np.searchsorted(rows, np.arange(n + 1, dtype=np.int64))
    data = np.ones(indices.size, dtype=bool)
    # csr_array keeps the int64 index arrays; csr_matrix's tuple
    # constructor would downcast them to int32, which the kernels'
    # ``r * n`` index shifts could overflow.
    return sp.csr_matrix(sp.csr_array((data, indices, indptr), shape=(n, n)))


class Topology:
    """An immutable, simulator-ready view of an undirected network.

    Parameters
    ----------
    graph:
        An undirected graph whose nodes are exactly ``0..n-1``.  Parallel
        edges collapse to one link.  Self-loops are rejected: a device
        does not hear its own antenna in the beeping model (its own beeps
        are accounted for separately, per the paper's "receives a 1 if it
        beeps itself" convention).
    """

    def __init__(self, graph: nx.Graph) -> None:
        assert_valid_topology(graph)
        edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
        self._adjacency = _sorted_csr(graph.number_of_nodes(), edges)

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "Topology":
        """The topology on ``num_nodes`` nodes with an ``(m, 2)`` edge list.

        Pairs may come in any order and orientation; duplicates collapse.
        Out-of-range endpoints and self-loops raise ConfigurationError.
        """
        n = int(num_nodes)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ConfigurationError(f"edge endpoints must lie in 0..{n - 1}")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ConfigurationError("topology must not contain self-loops")
        topology = cls.__new__(cls)
        topology._adjacency = _sorted_csr(n, edges)
        return topology

    @property
    def num_nodes(self) -> int:
        """Number of devices ``n``."""
        return self._adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of communication links ``m``."""
        return self._adjacency.nnz // 2

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Boolean CSR adjacency matrix of shape ``(n, n)``, rows sorted."""
        return self._adjacency

    @cached_property
    def neighbors(self) -> list[np.ndarray]:
        """Per-node sorted neighbour index arrays (views of the CSR rows)."""
        indptr, indices = self._adjacency.indptr, self._adjacency.indices
        return [indices[indptr[v] : indptr[v + 1]] for v in range(self.num_nodes)]

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree vector."""
        return np.diff(self._adjacency.indptr)

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Δ`` of the network (0 for edgeless graphs)."""
        return int(self.degrees.max(initial=0))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(min, max)`` pairs of ints, in ascending order."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees)
        indices = self._adjacency.indices
        upper = indices > rows
        return list(zip(rows[upper].tolist(), indices[upper].tolist()))

    def are_adjacent(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` share a link."""
        if not 0 <= u < self.num_nodes:
            return False
        row = self.neighbors[u]
        position = int(np.searchsorted(row, v))
        return position < row.size and int(row[position]) == v

    def distances_from(self, source: int) -> np.ndarray:
        """BFS hop distances from ``source`` (int64; ``-1`` where unreachable)."""
        n = self.num_nodes
        if not 0 <= source < n:
            raise ConfigurationError(f"source {source} out of range for {n} nodes")
        # Imported on first use: csgraph loads scipy.sparse.linalg, about
        # 11 MB of resident memory that a simulated round never needs.
        from scipy.sparse import csgraph

        hops = csgraph.shortest_path(
            self._adjacency, directed=False, unweighted=True, indices=source
        )
        hops[np.isinf(hops)] = -1
        return hops.astype(np.int64)

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

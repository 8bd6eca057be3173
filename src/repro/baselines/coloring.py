"""Greedy distance-2 colouring — the setup object of [7] and [4].

Both prior simulations sequence transmissions by a colouring of ``G²``
(no two nodes within distance 2 share a colour), so each listener has at
most one transmitting neighbour per colour class.  Greedy colouring in ID
order uses at most ``Δ² + 1`` colours — the ``min{n, Δ²}`` factor in [4]'s
overhead.

This is computed centrally: the distributed setup cost (``Δ⁶`` rounds in
[7], ``Δ⁴ log n`` in [4]) is accounted analytically via
:mod:`~repro.baselines.formulas`, since reproducing the prior papers'
setup protocols is out of scope (see docs/ARCHITECTURE.md, "Map: paper
claims → modules → experiments").
"""

from __future__ import annotations

from ..graphs import Topology

__all__ = ["greedy_distance2_coloring"]


def greedy_distance2_coloring(topology: Topology) -> list[int]:
    """Colour ``G²`` greedily; returns one colour per node.

    Guarantees: adjacent nodes and nodes with a common neighbour receive
    distinct colours; at most ``Δ² + 1`` colours are used.
    """
    n = topology.num_nodes
    colors: list[int] = [-1] * n
    for v in range(n):
        forbidden = set()
        for u in topology.neighbors[v]:
            u = int(u)
            if colors[u] >= 0:
                forbidden.add(colors[u])
            for w in topology.neighbors[u]:
                w = int(w)
                if w != v and colors[w] >= 0:
                    forbidden.add(colors[w])
        color = 0
        while color in forbidden:
            color += 1
        colors[v] = color
    return colors

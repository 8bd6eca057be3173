"""Validity checkers for algorithm outputs.

Each checker takes the topology, the node-ID assignment, and the per-node
outputs (indexed by node position) and returns ``(ok, reason)`` so tests
and experiments can report *why* an output is invalid.
"""

from __future__ import annotations

from typing import Sequence

from ..graphs import Topology
from .maximal_matching import UNMATCHED

__all__ = [
    "check_matching",
    "check_mis",
    "check_coloring",
    "check_bfs_tree",
    "check_leader_election",
]


def check_matching(
    topology: Topology,
    ids: Sequence[int],
    outputs: Sequence[object],
) -> tuple[bool, str]:
    """Check the Section 6 conditions: symmetry and maximality.

    ``outputs[v]`` is either a partner ID or :data:`UNMATCHED`.
    """
    index_of_id = {node_id: index for index, node_id in enumerate(ids)}
    for v in range(topology.num_nodes):
        partner = outputs[v]
        if partner == UNMATCHED:
            continue
        if partner not in index_of_id:
            return False, f"node {ids[v]} output unknown ID {partner}"
        u = index_of_id[partner]
        if not topology.are_adjacent(u, v):
            return False, f"nodes {ids[v]} and {partner} are not adjacent"
        if outputs[u] != ids[v]:
            return (
                False,
                f"symmetry violated: {ids[v]} -> {partner} but "
                f"{partner} -> {outputs[u]}",
            )
    for u, v in topology.edges():
        if outputs[u] == UNMATCHED and outputs[v] == UNMATCHED:
            return (
                False,
                f"maximality violated: edge ({ids[u]}, {ids[v]}) has both "
                "endpoints unmatched",
            )
    return True, "ok"


def check_mis(
    topology: Topology, outputs: Sequence[object]
) -> tuple[bool, str]:
    """Check independence and maximality of an MIS output (per-node bools)."""
    for v in range(topology.num_nodes):
        if outputs[v] is None:
            return False, f"node {v} is undecided"
    for u, v in topology.edges():
        if outputs[u] and outputs[v]:
            return False, f"independence violated on edge ({u}, {v})"
    for v in range(topology.num_nodes):
        if outputs[v]:
            continue
        if not any(outputs[int(u)] for u in topology.neighbors[v]):
            return False, f"maximality violated at node {v}"
    return True, "ok"


def check_coloring(
    topology: Topology, outputs: Sequence[object], num_colors: int
) -> tuple[bool, str]:
    """Check a proper colouring with the given palette size."""
    for v in range(topology.num_nodes):
        color = outputs[v]
        if color is None:
            return False, f"node {v} is uncoloured"
        if not 0 <= int(color) < num_colors:  # type: ignore[arg-type]
            return False, f"node {v} colour {color} outside [0, {num_colors})"
    for u, v in topology.edges():
        if outputs[u] == outputs[v]:
            return False, f"edge ({u}, {v}) is monochromatic ({outputs[u]})"
    return True, "ok"


def check_leader_election(
    topology: Topology,
    ids: Sequence[int],
    outputs: Sequence[object],
) -> tuple[bool, str]:
    """Check that every node elected its connected component's maximum ID.

    Max-ID flooding cannot cross component boundaries, so on a
    disconnected topology each component agrees on its own maximum —
    which is also what the reference algorithm's horizon guarantees.
    Of several wrong nodes, the lowest-index one is reported.
    """
    # Imported on first use, as in ``Topology.distances_from``.
    from scipy.sparse import csgraph

    _, labels = csgraph.connected_components(topology.adjacency, directed=False)
    labels = labels.tolist()
    leader: dict[int, int] = {}
    for label, node_id in zip(labels, ids):
        leader[label] = max(leader.get(label, node_id), node_id)
    for v, label in enumerate(labels):
        if outputs[v] != leader[label]:
            return (
                False,
                f"node {ids[v]} elected {outputs[v]}, expected {leader[label]}",
            )
    return True, "ok"


def check_bfs_tree(
    topology: Topology,
    ids: Sequence[int],
    root: int,
    outputs: Sequence[tuple[int, int | None]],
) -> tuple[bool, str]:
    """Check distances and parent pointers against true BFS distances."""
    true_distance = topology.distances_from(root).tolist()
    index_of_id = {node_id: index for index, node_id in enumerate(ids)}
    for v in range(topology.num_nodes):
        distance, parent = outputs[v]
        expected = true_distance[v]
        if distance != expected:
            return False, f"node {v} distance {distance}, expected {expected}"
        if v == root:
            if parent is not None:
                return False, f"root has parent {parent}"
            continue
        if expected == -1:
            if parent is not None:
                return False, f"unreachable node {v} has parent {parent}"
            continue
        if parent not in index_of_id:
            return False, f"node {v} has unknown parent {parent}"
        parent_index = index_of_id[parent]
        if not topology.are_adjacent(v, parent_index):
            return False, f"node {v} parent {parent} is not a neighbour"
        if true_distance[parent_index] != expected - 1:
            return False, f"node {v} parent {parent} is not one layer up"
    return True, "ok"

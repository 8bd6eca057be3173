"""Message-passing algorithms that run over the simulation (Section 6).

The centrepiece is :class:`VectorizedMaximalMatching` — the paper's
Algorithm 3, an ``O(log n)``-round Broadcast CONGEST maximal matching,
which Theorem 21 turns into an ``O(Δ log² n)``-round noisy-beeping
algorithm via the simulation.  The package also provides Luby's MIS,
BFS trees and leader election, each as one columnar algorithm for the
array-native engine, the (Δ+1)-colouring as per-node objects, and
output validity checkers.
"""

from .maximal_matching import (
    UNMATCHED,
    VectorizedMaximalMatching,
    matching_field_widths,
    matching_message_bits,
    run_matching_bc,
)
from .luby_mis import (
    VectorizedLubyMIS,
    mis_field_widths,
    mis_message_bits,
    run_mis_bc,
)
from .coloring import ColoringBC, make_coloring_algorithms, run_coloring_bc
from .bfs import VectorizedBFSTree, bfs_field_widths, run_bfs_bc
from .leader_election import VectorizedLeaderElection, run_leader_election_bc
from .verification import (
    check_coloring,
    check_matching,
    check_mis,
    check_bfs_tree,
    check_leader_election,
)

__all__ = [
    "UNMATCHED",
    "VectorizedMaximalMatching",
    "matching_field_widths",
    "matching_message_bits",
    "run_matching_bc",
    "VectorizedLubyMIS",
    "mis_field_widths",
    "mis_message_bits",
    "run_mis_bc",
    "ColoringBC",
    "make_coloring_algorithms",
    "run_coloring_bc",
    "VectorizedBFSTree",
    "bfs_field_widths",
    "run_bfs_bc",
    "VectorizedLeaderElection",
    "run_leader_election_bc",
    "check_coloring",
    "check_matching",
    "check_mis",
    "check_bfs_tree",
    "check_leader_election",
]

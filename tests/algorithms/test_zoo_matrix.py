"""The algorithm zoo × topology zoo matrix.

Every algorithm in :mod:`repro.algorithms` must produce outputs its
:mod:`repro.algorithms.verification` checker accepts on every registered
topology-zoo family at small ``n``: ``vectorized`` cells check the entry
point, held equal to :mod:`per_node_oracle`; ``reference`` cells check
the oracle itself.
"""

from __future__ import annotations

import pytest

from repro.algorithms import (
    check_bfs_tree,
    check_coloring,
    check_leader_election,
    check_matching,
    check_mis,
    run_bfs_bc,
    run_coloring_bc,
    run_leader_election_bc,
    run_matching_bc,
    run_mis_bc,
)
from repro.graphs import Topology, build_family_graph, family_names

import per_node_oracle as oracle
from per_node_oracle import same_run

#: A feasible small n per family (tree sizes, powers of two, ...).
FAMILY_SIZES = {
    "complete": 6,
    "path": 8,
    "cycle": 8,
    "star": 8,
    "grid": 9,
    "tree": 7,
    "gnp": 12,
    "regular": 8,
    "disk": 10,
    "planted": 8,
    "expander": 8,
    "hypercube": 8,
    "torus": 9,
    "barbell": 9,
    "caterpillar": 8,
    "powerlaw": 10,
}


def _topology(family: str) -> Topology:
    n = FAMILY_SIZES[family]
    return Topology(build_family_graph(family, n, seed=5))


def test_every_registered_family_has_a_size():
    """New zoo families must be added to this matrix."""
    assert set(FAMILY_SIZES) == set(family_names())


def _run(engine: str, entry_point, per_node, topology: Topology, *args):
    """The run a cell checks: the oracle's, or the entry point's held equal to it."""
    expected = per_node(topology, *args, seed=1)
    if engine == "reference":
        return expected
    result = entry_point(topology, *args, seed=1)
    assert same_run(result, expected), f"{result} != oracle {expected}"
    return result


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize("family", sorted(FAMILY_SIZES))
class TestZooMatrix:
    def test_matching(self, family, engine):
        topology = _topology(family)
        result = _run(engine, run_matching_bc, oracle.matching, topology)
        assert result.finished
        ok, why = check_matching(
            topology, list(range(topology.num_nodes)), result.outputs
        )
        assert ok, why

    def test_mis(self, family, engine):
        topology = _topology(family)
        result = _run(engine, run_mis_bc, oracle.mis, topology)
        assert result.finished
        ok, why = check_mis(topology, result.outputs)
        assert ok, why

    def test_coloring(self, family, engine):
        topology = _topology(family)
        result = _run(engine, run_coloring_bc, oracle.coloring, topology)
        assert result.finished
        ok, why = check_coloring(
            topology, result.outputs, topology.max_degree + 1
        )
        assert ok, why

    def test_bfs(self, family, engine):
        topology = _topology(family)
        result = _run(engine, run_bfs_bc, oracle.bfs, topology, 0)
        ok, why = check_bfs_tree(
            topology, list(range(topology.num_nodes)), 0, result.outputs
        )
        assert ok, why

    def test_leader_election(self, family, engine):
        topology = _topology(family)
        result = _run(engine, run_leader_election_bc, oracle.leader, topology)
        assert result.finished
        ok, why = check_leader_election(
            topology, list(range(topology.num_nodes)), result.outputs
        )
        assert ok, why

"""The tentpole invariant: the array-native engine equals the per-node oracle.

For every ``run_*_bc`` entry point, a run must equal the per-node
engine's run of the same algorithm (:mod:`per_node_oracle`) exactly —
outputs, rounds used, messages sent, finished — across topology-zoo
families, sizes and seeds, with default and custom node IDs.  Over the
beeping substrate, ``BeepSimulator``'s columnar host loop must equal the
per-node host loop of ``tests/core/reference_host.py`` run over the
simulator's own session.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.algorithms import (
    make_matching_algorithms,
    run_bfs_bc,
    run_coloring_bc,
    run_leader_election_bc,
    run_matching_bc,
    run_mis_bc,
)
from repro.algorithms.vectorized_matching import VectorizedMaximalMatching
from repro.congest.model import required_bits
from repro.core.parameters import SimulationParameters
from repro.core.transpiler import BeepSimulator
from repro.graphs import Topology, build_family_graph

import per_node_oracle as oracle
from per_node_oracle import same_run

# The host-loop oracle lives beside the round oracle in tests/core.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from reference_host import reference_run  # noqa: E402

#: Zoo families the equivalence is property-tested across (>= 4, mixing
#: deterministic, randomised, disconnected and hub-heavy shapes).
FAMILIES = [
    ("expander", 16, {"degree": 3}),
    ("torus", 9, None),
    ("gnp", 14, None),
    ("star", 8, None),
    ("planted", 9, None),
    ("hypercube", 16, None),
]

#: Each entry point next to its per-node oracle (BFS rooted at node 0).
RUNNERS = {
    "matching": (run_matching_bc, oracle.matching),
    "mis": (run_mis_bc, oracle.mis),
    "leader": (run_leader_election_bc, oracle.leader),
    "coloring": (run_coloring_bc, oracle.coloring),
    "bfs": (
        lambda topology, **kwargs: run_bfs_bc(topology, 0, **kwargs),
        lambda topology, **kwargs: oracle.bfs(topology, 0, **kwargs),
    ),
}


@pytest.mark.parametrize("family,n,params", FAMILIES)
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_native_runs_bit_identical(family, n, params, algorithm, seed):
    topology = Topology(build_family_graph(family, n, seed=7, params=params))
    entry_point, per_node = RUNNERS[algorithm]
    reference = per_node(topology, seed=seed)
    vectorized = entry_point(topology, seed=seed)
    assert same_run(reference, vectorized), (
        f"{algorithm} on {family} diverged at seed {seed}: "
        f"{reference} vs {vectorized}"
    )


@pytest.mark.parametrize("algorithm", ["matching", "mis", "bfs", "leader"])
def test_custom_ids_bit_identical(algorithm):
    topology = Topology(build_family_graph("torus", 9, seed=0))
    ids = [7, 101, 33, 5, 66, 2, 88, 41, 19]
    entry_point, per_node = RUNNERS[algorithm]
    reference = per_node(topology, seed=3, ids=ids)
    vectorized = entry_point(topology, seed=3, ids=ids)
    assert same_run(reference, vectorized)


class TestOverBeeps:
    """The transpiler's columnar host loop feeds the session identically."""

    SEED = 9

    def _simulators(self, topology, budget, eps):
        params = SimulationParameters(
            message_bits=budget, max_degree=topology.max_degree, eps=eps, c=4
        )
        return (
            BeepSimulator(topology, params=params, seed=self.SEED),
            BeepSimulator(topology, params=params, seed=self.SEED),
        )

    def _reference(self, simulator, algorithms):
        return reference_run(
            simulator.session.run_round,
            simulator.topology,
            simulator.params.message_bits,
            self.SEED,
            algorithms,
            max_rounds=40,
        )

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_object_algorithms_same_under_both_hosts(self, eps):
        topology = Topology(build_family_graph("gnp", 10, seed=2))
        algorithms, budget = make_matching_algorithms(topology, value_exponent=3)
        reference_sim, vectorized_sim = self._simulators(topology, budget, eps)
        reference = self._reference(reference_sim, algorithms)
        again, _ = make_matching_algorithms(topology, value_exponent=3)
        vectorized = vectorized_sim.run_broadcast_congest(again, max_rounds=40)
        assert reference.outputs == vectorized.outputs
        assert reference.finished == vectorized.finished
        assert reference.stats.beep_rounds == vectorized.stats.beep_rounds
        assert reference.stats.failed_rounds == vectorized.stats.failed_rounds

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_columnar_matching_over_beeps_equals_objects(self, eps):
        topology = Topology(build_family_graph("gnp", 10, seed=2))
        n = topology.num_nodes
        algorithms, budget = make_matching_algorithms(topology, value_exponent=3)
        reference_sim, vectorized_sim = self._simulators(topology, budget, eps)
        reference = self._reference(reference_sim, algorithms)
        columnar = VectorizedMaximalMatching(
            id_bits=required_bits(n),
            value_bits=max(1, 3 * required_bits(max(2, n))),
        )
        vectorized = vectorized_sim.run_broadcast_congest(columnar, max_rounds=40)
        assert reference.outputs == vectorized.outputs
        assert reference.finished == vectorized.finished
        assert reference.stats.beep_rounds == vectorized.stats.beep_rounds

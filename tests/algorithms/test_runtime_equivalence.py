"""The tentpole invariant: the array-native engine equals the per-node oracle.

For every ``run_*_bc`` entry point, a run must equal the per-node
engine's run of the same algorithm (:mod:`per_node_oracle`) exactly —
outputs, rounds used, messages sent, finished — across topology-zoo
families, sizes and seeds, with default and custom node IDs.  Over the
beeping substrate, ``BeepSimulator``'s columnar host loop must equal the
per-node host loop of ``tests/core/reference_host.py`` run over the
simulator's own session, and the columnar matching the experiments run
must equal the oracle's per-node objects, failed rounds included.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import (
    VectorizedMaximalMatching,
    matching_field_widths,
    run_bfs_bc,
    run_coloring_bc,
    run_leader_election_bc,
    run_matching_bc,
    run_mis_bc,
)
from repro.beeping.noise import NoiseModel
from repro.core.parameters import SimulationParameters
from repro.core.transpiler import BeepSimulator
from repro.graphs import Topology, build_family_graph
from repro.graphs.hard_instances import matching_hard_instance

import per_node_oracle as oracle
from per_node_oracle import make_matching_algorithms, same_run

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


class BurstChannel(NoiseModel):
    """Noiseless, except that every heard bit of beeping rounds
    ``[start, stop)`` is inverted: one corrupted span, clean elsewhere."""

    def __init__(self, start: int, stop: int) -> None:
        self._start = start
        self._stop = stop

    @property
    def eps(self) -> float:
        return 0.0

    def apply(self, received, round_index):
        heard = np.array(received, dtype=bool, copy=True)
        columns = heard.reshape(heard.shape[0], -1)  # a view of heard
        rounds = round_index + np.arange(columns.shape[1])
        burst = (rounds >= self._start) & (rounds < self._stop)
        columns[:, burst] = ~columns[:, burst]
        return heard


class TestOverBeeps:
    """The transpiler's columnar host loop feeds the session identically."""

    SEED = 9

    def _params(self, topology, budget, eps):
        return SimulationParameters(
            message_bits=budget, max_degree=topology.max_degree, eps=eps, c=4
        )

    def _simulators(self, topology, budget, eps, ids=None, channel=None):
        params = self._params(topology, budget, eps)
        return tuple(
            BeepSimulator(
                topology, params=params, seed=self.SEED, ids=ids, channel=channel
            )
            for _ in range(2)
        )

    def _reference(self, simulator, algorithms, ids=None, max_rounds=40):
        return reference_run(
            simulator.session.run_round,
            simulator.topology,
            simulator.params.message_bits,
            self.SEED,
            algorithms,
            max_rounds=max_rounds,
            ids=ids,
        )

    def _columnar_against_oracle(
        self, topology, eps, ids=None, channel=None, max_rounds=40
    ):
        """The per-node oracle and the columnar matching, each on a fresh
        simulator, with the experiments' compact samples."""
        n = topology.num_nodes
        algorithms, budget = make_matching_algorithms(
            topology, ids, value_exponent=3
        )
        reference_sim, vectorized_sim = self._simulators(
            topology, budget, eps, ids=ids, channel=channel
        )
        reference = self._reference(
            reference_sim, algorithms, ids=ids, max_rounds=max_rounds
        )
        id_bits, value_bits = matching_field_widths(n, ids, value_exponent=3)
        vectorized = vectorized_sim.run_broadcast_congest(
            VectorizedMaximalMatching(id_bits, value_bits), max_rounds=max_rounds
        )
        assert vectorized.outputs == reference.outputs
        assert vectorized.finished == reference.finished
        assert vectorized.stats == reference.stats
        return reference

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
        self._columnar_against_oracle(topology, eps)

    def test_columnar_matching_with_sparse_ids_equals_objects(self):
        """e13's path: the hard ensemble with its ``[n⁴]`` IDs."""
        graph, ids_map = matching_hard_instance(3, 64, seed=self.SEED)
        topology = Topology(graph)
        ids = [ids_map[v] for v in range(topology.num_nodes)]
        assert max(ids) >= 64
        reference = self._columnar_against_oracle(
            topology, 0.05, ids=ids, max_rounds=60
        )
        assert reference.finished

    def test_columnar_matching_through_a_failed_round_equals_objects(self):
        """One corrupted simulated round, the third: both consume the same
        wrong decodes, and every other round is clean."""
        topology = Topology(build_family_graph("gnp", 10, seed=2))
        _, budget = make_matching_algorithms(topology, value_exponent=3)
        span = self._params(topology, budget, 0.05).overhead
        third_round = BurstChannel(2 * span, 3 * span)
        reference = self._columnar_against_oracle(
            topology, 0.05, channel=third_round
        )
        stats = reference.stats
        assert 0 < stats.failed_rounds < stats.simulated_rounds

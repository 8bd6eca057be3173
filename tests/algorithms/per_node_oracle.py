"""The per-node oracle for the ``run_*_bc`` entry points.

Each function runs the same algorithm as its entry point, with the same
message budget, round budget, IDs and seed, on the per-node engine:
:class:`~repro.congest.network.BroadcastCongestNetwork` driving the
module's ``make_*_algorithms`` objects, the executable specification of
Broadcast CONGEST.  Round budgets come from each module's
``_round_budget``, so they cannot drift from the entry points.
"""

from __future__ import annotations

import repro.algorithms.bfs as bfs_module
import repro.algorithms.coloring as coloring_module
import repro.algorithms.leader_election as leader_module
import repro.algorithms.luby_mis as mis_module
import repro.algorithms.maximal_matching as matching_module
from repro.congest import BroadcastCongestNetwork, required_bits


def same_run(a, b) -> bool:
    """Whether two runs agree on outputs, rounds, messages and termination."""
    return (
        a.outputs == b.outputs
        and a.rounds_used == b.rounds_used
        and a.messages_sent == b.messages_sent
        and a.finished == b.finished
    )


def _run(topology, built, round_budget, seed, ids):
    algorithms, budget = built
    network = BroadcastCongestNetwork(
        topology, ids=ids, message_bits=budget, seed=seed
    )
    return network.run(algorithms, max_rounds=round_budget(topology.num_nodes))


def matching(topology, seed=0, ids=None, value_exponent=9):
    """The oracle of :func:`~repro.algorithms.run_matching_bc`."""
    built = matching_module.make_matching_algorithms(
        topology, ids, value_exponent=value_exponent
    )
    return _run(topology, built, matching_module._round_budget, seed, ids)


def mis(topology, seed=0, ids=None):
    """The oracle of :func:`~repro.algorithms.run_mis_bc`."""
    built = mis_module.make_mis_algorithms(topology, ids)
    return _run(topology, built, mis_module._round_budget, seed, ids)


def coloring(topology, seed=0, ids=None):
    """The oracle of :func:`~repro.algorithms.run_coloring_bc`."""
    built = coloring_module.make_coloring_algorithms(topology, ids)
    return _run(topology, built, coloring_module._round_budget, seed, ids)


def bfs(topology, root, seed=0, ids=None):
    """The oracle of :func:`~repro.algorithms.run_bfs_bc`."""
    built = bfs_module.make_bfs_algorithms(topology, root, ids)
    return _run(topology, built, bfs_module._round_budget, seed, ids)


def leader(topology, seed=0, ids=None):
    """The oracle of :func:`~repro.algorithms.run_leader_election_bc`."""
    algorithms, budget = leader_module.make_leader_algorithms(topology)
    if ids is not None:
        # The entry point widens the budget to carry the largest ID.
        budget = max(budget, required_bits(max(ids) + 1))
    built = algorithms, budget
    return _run(topology, built, leader_module._round_budget, seed, ids)

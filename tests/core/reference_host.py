"""``BeepSimulator``'s per-node host loop, kept as a test oracle.

:meth:`~repro.core.transpiler.BeepSimulator.run_broadcast_congest` runs
every algorithm through one columnar host loop, per-node objects via
:class:`~repro.congest.vectorized.ObjectAlgorithmsAdapter`.
:func:`reference_run` is the per-node loop it replaced, unchanged: each
node's ``broadcast`` and ``receive`` in turn, every round through the
simulator's own session.  Fresh algorithms on fresh simulators with one
seed must give equal results under both loops.
"""

from __future__ import annotations

from repro.congest.context import NodeContext
from repro.congest.model import check_message
from repro.core.stats import SimulationStats
from repro.core.transpiler import TranspiledRunResult
from repro.errors import ConfigurationError
from repro.rng import derive_rng


def _context(simulator, index):
    topology = simulator.topology
    return NodeContext(
        index=index,
        node_id=simulator._ids[index],
        num_nodes=topology.num_nodes,
        max_degree=topology.max_degree,
        degree=int(topology.degrees[index]),
        message_bits=simulator.params.message_bits,
        rng=derive_rng(simulator._seed, "node-local", index),
        neighbor_ids=None,
    )


def reference_run(simulator, algorithms, max_rounds) -> TranspiledRunResult:
    """Run per-node ``algorithms`` over ``simulator``'s session, node by node."""
    n = simulator.topology.num_nodes
    if len(algorithms) != n:
        raise ConfigurationError(f"got {len(algorithms)} algorithms for {n} nodes")
    for index, algorithm in enumerate(algorithms):
        algorithm.setup(_context(simulator, index))
    stats = SimulationStats()
    round_offset = 0
    for round_index in range(max_rounds):
        if all(a.finished for a in algorithms):
            break
        broadcasts: list[int | None] = []
        for algorithm in algorithms:
            message = None if algorithm.finished else algorithm.broadcast(round_index)
            if message is not None:
                check_message(message, simulator.params.message_bits)
            broadcasts.append(message)
        outcome = simulator.session.run_round(broadcasts, round_offset=round_offset)
        round_offset += outcome.beep_rounds_used
        stats.record_round(
            beep_rounds=outcome.beep_rounds_used,
            success=outcome.success,
            phase1_errors=outcome.phase1_errors,
            phase2_errors=outcome.phase2_errors,
            r_collision=outcome.r_collision,
        )
        for index, algorithm in enumerate(algorithms):
            if not algorithm.finished:
                algorithm.receive(round_index, list(outcome.decoded[index]))
    return TranspiledRunResult(
        outputs=[a.output() for a in algorithms],
        finished=all(a.finished for a in algorithms),
        stats=stats,
    )

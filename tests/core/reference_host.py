"""The per-node host loop of the beeping simulators, kept as a test oracle.

:class:`~repro.core.transpiler.BeepSimulator` and
:class:`~repro.baselines.agl.TDMABroadcastSimulator` run every algorithm
through the one round loop, :func:`~repro.congest.vectorized.drive`,
per-node objects via :class:`~repro.congest.vectorized.
ObjectAlgorithmsAdapter`.  :func:`reference_run` is the per-node loop
they replaced: each node's ``broadcast`` and ``receive`` in turn, every
round through the simulated round it is given.  Fresh algorithms on
fresh simulators with one seed must give equal results under both loops.
"""

from __future__ import annotations

from repro.congest.context import NodeContext
from repro.congest.model import check_message
from repro.core.stats import SimulationStats
from repro.core.transpiler import TranspiledRunResult
from repro.errors import ConfigurationError
from repro.rng import derive_rng


def _context(topology, message_bits, seed, index, node_id):
    return NodeContext(
        index=index,
        node_id=node_id,
        num_nodes=topology.num_nodes,
        max_degree=topology.max_degree,
        degree=int(topology.degrees[index]),
        message_bits=message_bits,
        rng=derive_rng(seed, "node-local", index),
        neighbor_ids=None,
    )


def reference_run(
    simulated_round, topology, message_bits, seed, algorithms, max_rounds, ids=None
) -> TranspiledRunResult:
    """Run per-node ``algorithms`` node by node over ``simulated_round``.

    ``simulated_round(broadcasts)`` simulates the next Broadcast CONGEST
    round, chaining its own beeping-round offsets as a fresh session's
    ``run_round`` does, and returns an outcome shaped like
    :class:`~repro.core.round_simulator.RoundOutcome` (``decoded``,
    ``beep_rounds_used``, ``success``, ``phase1_errors``,
    ``phase2_errors``, ``r_collision``).  Node ``v`` has ID ``ids[v]``,
    or ``v`` when ``ids`` is ``None``.
    """
    n = topology.num_nodes
    if len(algorithms) != n:
        raise ConfigurationError(f"got {len(algorithms)} algorithms for {n} nodes")
    if ids is None:
        ids = range(n)
    for index, algorithm in enumerate(algorithms):
        algorithm.setup(_context(topology, message_bits, seed, index, ids[index]))
    stats = SimulationStats()
    for round_index in range(max_rounds):
        if all(a.finished for a in algorithms):
            break
        broadcasts: list[int | None] = []
        for algorithm in algorithms:
            message = None if algorithm.finished else algorithm.broadcast(round_index)
            if message is not None:
                check_message(message, message_bits)
            broadcasts.append(message)
        outcome = simulated_round(broadcasts)
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

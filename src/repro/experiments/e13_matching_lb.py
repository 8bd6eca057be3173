"""E13 — Theorem 22: the Ω(Δ log n) maximal-matching lower bound.

Tabulates the counting bound across (Δ, n), and runs our simulated
matching on the hard ensemble (``K_{Δ,Δ}`` with random IDs from ``[n⁴]``)
to confirm (a) it still outputs perfect matchings there, and (b) its
measured beeping rounds respect the bound — i.e. the upper bound
``O(Δ log² n)`` sits a ``log n`` factor above Ω(Δ log n), as the paper
notes ("almost optimal").
"""

from __future__ import annotations

from ..algorithms import (
    VectorizedMaximalMatching,
    check_matching,
    matching_field_widths,
    matching_message_bits,
)
from ..core.parameters import SimulationParameters
from ..core.transpiler import BeepSimulator
from ..graphs import Topology
from ..graphs.hard_instances import matching_hard_instance
from ..lower_bounds import matching_round_bound, matching_success_bound
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run"]


@experiment(
    id="e13",
    title="Theorem 22: matching lower bound",
    claim="Theorem 22",
    tags=("matching", "lower-bound"),
)
def run(ctx: RunContext) -> list[Table]:
    """Bound table plus hard-ensemble execution."""
    bounds = Table(
        title="E13a: Theorem 22 counting bound",
        headers=[
            "Delta",
            "n",
            "round bound (Delta log2 n)",
            "success cap at bound",
        ],
    )
    for delta, n in [(2, 16), (4, 64), (8, 256), (16, 1024)]:
        bound = matching_round_bound(delta, n)
        bounds.add_row(
            delta, n, bound, matching_success_bound(bound, delta, n)
        )

    hard = Table(
        title="E13b: simulated matching on the hard ensemble K_(D,D)",
        headers=[
            "Delta",
            "n (ID space n^4)",
            "valid",
            "beep rounds",
            "round bound",
            "respects bound",
        ],
    )
    configs = [(2, 16)] if ctx.quick else [(2, 16), (3, 64), (4, 64)]
    for delta, n in configs:
        graph, ids_map = matching_hard_instance(delta, n, seed=ctx.seed)
        topology = Topology(graph)
        ids = [ids_map[v] for v in range(topology.num_nodes)]
        num_nodes = topology.num_nodes
        id_bits, value_bits = matching_field_widths(
            num_nodes, ids, value_exponent=3
        )
        params = SimulationParameters(
            message_bits=matching_message_bits(num_nodes, ids, value_exponent=3),
            max_degree=delta,
            eps=0.05,
            c=4,
        )
        simulator = BeepSimulator(topology, params=params, seed=ctx.seed, ids=ids)
        result = simulator.run_broadcast_congest(
            VectorizedMaximalMatching(id_bits, value_bits), max_rounds=60
        )
        ok, _ = check_matching(topology, ids, result.outputs)
        bound = matching_round_bound(delta, n)
        hard.add_row(
            delta,
            n,
            ok and result.finished,
            result.stats.beep_rounds,
            bound,
            result.stats.beep_rounds >= bound,
        )
    return [bounds, hard]

"""E12 — Theorem 21: maximal matching in O(Δ log² n) noisy-beep rounds.

The headline application: Algorithm 3 run end-to-end through the
Algorithm 1 simulation on noisy beeping networks.  Reports validity under
noise, total beeping rounds, and the ratio to the ``Δ log² n`` predictor.
"""

from __future__ import annotations

import math

from ..algorithms import (
    VectorizedMaximalMatching,
    check_matching,
    matching_field_widths,
    matching_message_bits,
)
from ..core.parameters import SimulationParameters
from ..core.transpiler import BeepSimulator
from ..graphs import Topology, random_regular_graph
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run"]


@experiment(
    id="e12",
    title="Theorem 21: matching over noisy beeps",
    claim="Theorem 21",
    tags=("matching", "theorem"),
)
def run(ctx: RunContext) -> list[Table]:
    """Sweep (Δ, ε); run matching over beeps; verify validity and shape."""
    table = Table(
        title="E12: maximal matching over noisy beeps (Thm 21)",
        headers=[
            "n",
            "Delta",
            "eps",
            "valid",
            "sim rounds",
            "beep rounds",
            "failed sim rounds",
            "ratio to Delta*log^2 n",
        ],
        notes=[
            "value_exponent lowered to 3 to keep messages compact; the "
            "O(Delta log^2 n) shape uses B = Theta(log n) per message",
        ],
    )
    eps_values = [0.0, 0.1]
    configs = [(10, 3)] if ctx.quick else [(12, 3), (16, 4), (24, 5)]
    for n, delta in configs:
        topology = Topology(random_regular_graph(n, delta, seed=ctx.seed))
        ids = list(range(n))
        id_bits, value_bits = matching_field_widths(n, ids, value_exponent=3)
        for eps in eps_values:
            params = SimulationParameters(
                message_bits=matching_message_bits(n, ids, value_exponent=3),
                max_degree=delta,
                eps=eps,
                c=SimulationParameters.for_network(n, delta, eps=eps).c,
            )
            simulator = BeepSimulator(topology, params=params, seed=ctx.seed)
            result = simulator.run_broadcast_congest(
                VectorizedMaximalMatching(id_bits, value_bits), max_rounds=80
            )
            ok, _ = check_matching(topology, ids, result.outputs)
            log_n = math.log2(n)
            predictor = delta * log_n * log_n
            table.add_row(
                n,
                delta,
                eps,
                ok and result.finished,
                result.stats.simulated_rounds,
                result.stats.beep_rounds,
                result.stats.failed_rounds,
                result.stats.beep_rounds / predictor,
            )
    return [table]

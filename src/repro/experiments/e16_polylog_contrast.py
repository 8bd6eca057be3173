"""E16 — Section 7: polylog(n) vs poly(Δ) in the beeping model.

The paper's concluding observation: in the beeping model, MIS is solvable
in ``polylog(n)`` rounds ([1]; :func:`repro.beeping.beeping_mis`), while
maximal matching provably needs ``Ω(Δ log n)`` (Theorem 22) — a complexity
separation CONGEST does not have.  The table runs both on the same graphs:
native-MIS rounds stay flat as Δ grows at fixed n, while matching (via the
optimal simulation, i.e. essentially the best known) scales linearly in Δ.
"""

from __future__ import annotations

from ..algorithms import (
    VectorizedMaximalMatching,
    check_matching,
    check_mis,
    matching_field_widths,
    matching_message_bits,
)
from ..beeping.mis import beeping_mis
from ..core.parameters import SimulationParameters
from ..core.transpiler import BeepSimulator
from ..graphs import Topology, random_regular_graph
from ..lower_bounds import matching_round_bound
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run"]


@experiment(
    id="e16",
    title="Section 7: polylog MIS vs poly-Delta matching",
    claim="Section 7",
    tags=("separation", "matching"),
)
def run(ctx: RunContext) -> list[Table]:
    """Race native beeping MIS against simulated matching across Δ."""
    table = Table(
        title="E16: beeping-model complexity split, MIS vs matching (Sec. 7)",
        headers=[
            "n",
            "Delta",
            "MIS rounds (native beeps)",
            "MIS valid",
            "matching rounds (via sim)",
            "matching valid",
            "matching LB (Delta log n)",
        ],
        notes=[
            "MIS runs directly on beeps (rank knockout, O(log^2 n)); "
            "matching runs through the optimal simulation (Thm 21), and no "
            "beeping algorithm can beat Delta log n (Thm 22)",
        ],
    )
    n = 16 if ctx.quick else 24
    deltas = [3, 5] if ctx.quick else [3, 5, 7, 9]
    for delta in deltas:
        topology = Topology(random_regular_graph(n, delta, seed=ctx.seed))
        mis = beeping_mis(topology, seed=ctx.seed)
        mis_ok, _ = check_mis(topology, mis.in_mis)

        ids = list(range(n))
        id_bits, value_bits = matching_field_widths(n, ids, value_exponent=3)
        params = SimulationParameters(
            message_bits=matching_message_bits(n, ids, value_exponent=3),
            max_degree=delta,
            eps=0.0,
            c=3,
        )
        result = BeepSimulator(
            topology, params=params, seed=ctx.seed
        ).run_broadcast_congest(
            VectorizedMaximalMatching(id_bits, value_bits), max_rounds=80
        )
        match_ok, _ = check_matching(topology, ids, result.outputs)

        table.add_row(
            n,
            delta,
            mis.rounds_used,
            mis_ok,
            result.stats.beep_rounds,
            match_ok and result.finished,
            matching_round_bound(delta, max(2, n)),
        )
    return [table]

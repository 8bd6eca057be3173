"""E4 — Lemmas 8–9: phase-1 decoding (codeword-set recovery under noise).

Runs Algorithm 1 rounds on regular graphs across a ``(Δ, ε)`` sweep and
reports the rate at which nodes recover exactly their neighbourhood's
codeword set (``R̃_v = R_v``), at the practical constants.
"""

from __future__ import annotations

from ..analysis.measurement import measure_round_success
from ..core.parameters import SimulationParameters, practical_c
from ..graphs import Topology, random_regular_graph
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run"]


@experiment(
    id="e04",
    title="Lemmas 8-9: phase-1 set recovery under noise",
    claim="Lemmas 8-9",
    tags=("simulation", "decoding"),
)
def run(ctx: RunContext) -> list[Table]:
    """Sweep (Δ, ε) and measure the phase-1 set-recovery rate."""
    table = Table(
        title="E4: phase-1 decoding, R~_v = R_v rate (Lemmas 8-9)",
        headers=[
            "n",
            "Delta",
            "eps",
            "c",
            "phase rounds",
            "trials",
            "node errors",
            "node error rate",
            "round success",
        ],
        notes=[
            "practical constants (docs/ARCHITECTURE.md); "
            "node errors count R~_v != R_v"
        ],
    )
    n = 18 if ctx.quick else 30
    deltas = [2, 4] if ctx.quick else [2, 4, 6, 8]
    eps_values = [0.0, 0.1] if ctx.quick else [0.0, 0.05, 0.1, 0.2]
    trials = 6 if ctx.quick else 25
    for delta in deltas:
        topology = Topology(random_regular_graph(n, delta, seed=ctx.seed))
        for eps in eps_values:
            params = SimulationParameters.for_network(
                n, delta, eps=eps, gamma=1
            )
            stats = measure_round_success(
                topology, params, trials=trials, seed=ctx.seed
            )
            node_rounds = n * trials
            table.add_row(
                n,
                delta,
                eps,
                practical_c(eps),
                params.beep_code_length,
                trials,
                stats.phase1_node_errors,
                stats.phase1_node_errors / node_rounds,
                stats.success_rate,
            )
    return [table]

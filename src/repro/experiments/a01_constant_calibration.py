"""A1 (ablation) — calibrating the practical constant c.

The paper's proofs demand c_ε ≈ 10³ (E15b); docs/ARCHITECTURE.md,
"Practical constants", claims small constants suffice in practice.  This ablation sweeps c at several noise
levels and measures the per-round success rate, exposing the failure
cliff that :func:`repro.core.practical_c` is calibrated against: success
collapses when c is too small for ε and saturates shortly above the
preset.
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
    id="a01",
    title="Ablation: practical constant c calibration",
    claim="docs/ARCHITECTURE.md: practical constants",
    tags=("ablation", "calibration"),
)
def run(ctx: RunContext) -> list[Table]:
    """Sweep c for each ε; report success rates and the chosen preset."""
    table = Table(
        title="A1: success rate vs redundancy constant c (ablation)",
        headers=[
            "eps",
            "c",
            "preset",
            "trials",
            "round success",
            "phase1 errors",
            "phase2 errors",
        ],
        notes=[
            "n = 16, Delta = 4; practical_c(eps) marks the preset used by "
            "the library; success should be ~0 well below it and ~1 at it",
        ],
    )
    n, delta = 16, 4
    topology = Topology(random_regular_graph(n, delta, seed=ctx.seed))
    trials = 4 if ctx.quick else 15
    sweeps = {
        0.1: [3, 4, 5, 6],
        0.2: [3, 5, 6, 8],
    }
    if not ctx.quick:
        sweeps[0.05] = [3, 4, 5]
        sweeps[0.3] = [4, 6, 8, 10]
    for eps in sorted(sweeps):
        preset = practical_c(eps)
        for c in sweeps[eps]:
            params = SimulationParameters(
                message_bits=5, max_degree=delta, eps=eps, c=c
            )
            stats = measure_round_success(
                topology, params, trials=trials, seed=ctx.seed
            )
            table.add_row(
                eps,
                c,
                preset,
                trials,
                stats.success_rate,
                stats.phase1_node_errors,
                stats.phase2_node_errors,
            )
    return [table]

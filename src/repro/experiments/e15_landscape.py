"""E15 — Sections 1.2–1.3: the round-complexity landscape.

Prints the analytic setup and per-round overheads of the three generations
of simulation ([7], [4], this paper) over an ``(n, Δ)`` grid, including the
paper's claimed improvement factor ``Θ(min{n/Δ, Δ})`` over [4] and the
strict-constant table explaining why practical presets exist.
"""

from __future__ import annotations

from ..analysis.theory import strict_constraint_table
from ..baselines import (
    agl_overhead,
    agl_setup,
    beauquier_overhead,
    beauquier_setup,
    ours_broadcast_overhead,
    ours_congest_overhead,
)
from ..core.parameters import paper_strict_c
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run"]


@experiment(
    id="e15",
    title="Sections 1.2-1.3: overhead landscape",
    claim="Sections 1.2-1.3",
    tags=("analytic", "landscape"),
)
def run(ctx: RunContext) -> list[Table]:
    """Tabulate the analytic landscape and the strict constants."""
    landscape = Table(
        title="E15a: analytic overhead landscape (constants = 1)",
        headers=[
            "n",
            "Delta",
            "[7] setup",
            "[7]/round",
            "[4] setup",
            "[4]/round",
            "ours BC/round",
            "ours CONGEST/round",
            "[4]/ours-CONGEST",
        ],
    )
    grid = [
        (2**8, 4),
        (2**8, 16),
        (2**12, 16),
        (2**12, 64),
        (2**16, 64),
        (2**16, 256),
    ]
    for n, delta in grid:
        landscape.add_row(
            n,
            delta,
            beauquier_setup(n, delta),
            beauquier_overhead(n, delta),
            agl_setup(n, delta),
            agl_overhead(n, delta),
            ours_broadcast_overhead(n, delta),
            ours_congest_overhead(n, delta),
            agl_overhead(n, delta) / ours_congest_overhead(n, delta),
        )
    landscape.notes.append(
        "[4]/ours-CONGEST column is the paper's min{n/Delta, Delta} "
        "improvement factor"
    )

    constants = Table(
        title="E15b: paper-strict constant constraints (Lemmas 6, 9, 10)",
        headers=["eps", "constraint", "value"],
    )
    for eps in [0.05, 0.1, 0.2, 0.3]:
        for name, value in strict_constraint_table(eps):
            constants.add_row(eps, name, value)
        constants.add_row(eps, "=> paper_strict_c", paper_strict_c(eps))
    constants.notes.append(
        "at eps = 0.1 the strict constant is ~1e3, giving beep codes of "
        "length c^3 (Delta+1) log n ~ 1e11 bits - why practical presets "
        "(c in 3..8) are used for execution (docs/ARCHITECTURE.md, "
        "'Practical constants')"
    )
    return [landscape, constants]

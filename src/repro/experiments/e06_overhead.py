"""E6 — Theorem 11: simulation overhead is O(Δ log n).

Tabulates the beeping rounds Algorithm 1 spends per simulated Broadcast
CONGEST round across sweeps in ``Δ`` (fixed ``n``) and ``n`` (fixed
``Δ``), with their ratio to the ``(Δ+1)·B`` predictor.  Both columns are
analytic: the overhead is ``params.overhead``, which is ``2b =
2c³(Δ+1)B`` by definition, so the ratio is ``2c³`` in every row and the
fitted factor fits the formula to itself.  The one measured column is
the success rate: the share of chained rounds, run at that overhead on
random messages, in which every node decoded every neighbour's message.
"""

from __future__ import annotations

from ..analysis.measurement import fit_linear_factor, measure_round_success
from ..core.parameters import SimulationParameters
from ..graphs import Topology, random_regular_graph
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run"]


@experiment(
    id="e06",
    title="Theorem 11: O(Delta log n) overhead",
    claim="Theorem 11",
    tags=("simulation", "overhead", "theorem"),
)
def run(ctx: RunContext) -> list[Table]:
    """Tabulate the overhead formula vs Δ and vs n, fit its linear factor,
    and measure the success rate at that overhead."""
    eps = 0.1
    trials = 3 if ctx.quick else 10

    by_delta = Table(
        title="E6a: overhead vs Delta at fixed n (Thm 11: O(Delta log n))",
        headers=[
            "n",
            "Delta",
            "B",
            "overhead (beep rounds)",
            "overhead/((Delta+1)*B)",
            "success rate",
        ],
    )
    n = 24 if ctx.quick else 48
    deltas = [2, 3, 4] if ctx.quick else [2, 3, 4, 6, 8, 10]
    xs, ys = [], []
    for delta in deltas:
        topology = Topology(random_regular_graph(n, delta, seed=ctx.seed))
        params = SimulationParameters.for_network(n, delta, eps=eps, gamma=1)
        stats = measure_round_success(
            topology, params, trials=trials, seed=ctx.seed
        )
        overhead = params.overhead
        predictor = (delta + 1) * params.message_bits
        xs.append(predictor)
        ys.append(overhead)
        by_delta.add_row(
            n,
            delta,
            params.message_bits,
            overhead,
            overhead / predictor,
            stats.success_rate,
        )
    slope = fit_linear_factor(xs, ys)
    by_delta.notes.append(
        f"fitted overhead ~ {slope:.1f} * (Delta+1) * B  (flat ratio = linear shape)"
    )

    by_n = Table(
        title="E6b: overhead vs n at fixed Delta (log n scaling)",
        headers=[
            "n",
            "Delta",
            "B",
            "overhead (beep rounds)",
            "overhead/((Delta+1)*B)",
            "success rate",
        ],
    )
    delta = 3
    sizes = [16, 64] if ctx.quick else [16, 64, 256, 1024]
    for n_value in sizes:
        topology = Topology(random_regular_graph(n_value, delta, seed=ctx.seed))
        params = SimulationParameters.for_network(n_value, delta, eps=eps, gamma=1)
        stats = measure_round_success(
            topology, params, trials=max(2, trials // 2), seed=ctx.seed
        )
        predictor = (delta + 1) * params.message_bits
        by_n.add_row(
            n_value,
            delta,
            params.message_bits,
            params.overhead,
            params.overhead / predictor,
            stats.success_rate,
        )
    return [by_delta, by_n]

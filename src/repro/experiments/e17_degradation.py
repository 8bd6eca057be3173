"""E17 — graceful degradation under heterogeneous noise and churn.

The paper's ``O(Δ log n)``-round simulation assumes a static graph and
uniform Bernoulli(ε) noise.  This experiment measures where that
guarantee *degrades gracefully* versus *breaks* when the same ε budget is
spent non-uniformly: an unreliable hot zone covering a growing fraction
of the nodes (``zone:<frac>`` channels — the mean per-node rate stays on
budget, the hot nodes run at up to ``4ε``), crossed with per-round node
churn that masks a random subset of radios each simulated round
(:class:`~repro.beeping.noise.DynamicTopology`).

The table reports, per (hot-zone fraction × churn rate) cell, the decode
success rate over seeds × rounds and the *effective round overhead* —
beeping rounds spent per successfully simulated Broadcast CONGEST round
(``2b / success_rate``; infinite when nothing succeeds, rendered as
``None``).  A graceful row keeps the overhead within a small factor of
the noiseless-zone baseline; a broken row's success rate collapses.
"""

from __future__ import annotations

from ..beeping.noise import DynamicTopology, make_noise_model
from ..core.parameters import SimulationParameters
from ..core.round_simulator import BroadcastSession
from ..graphs import Topology, random_regular_graph
from ..rng import derive_rng, derive_seed, random_bits_many
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run"]

#: Nominal per-bit noise budget every scenario spends (uniformly,
#: zoned, or adversarially re-shaped — the mean rate never exceeds it).
_EPS = 0.05

#: Hot-zone fractions swept (0.0 = the uniform-Bernoulli baseline).
_FRACTIONS = (0.0, 0.25, 0.5)

#: Per-epoch node-churn probabilities swept (0.0 = static graph).
_CHURNS = (0.0, 0.15, 0.3)


def _cell_channel(frac: float, eps: float, seed: int, n: int):
    """The scenario channel for one hot-zone fraction (0 = uniform)."""
    name = "bernoulli" if frac == 0.0 else f"zone:{frac}"
    return make_noise_model(name, eps, seed, n)


@experiment(
    id="e17",
    title="Degradation under unreliable zones and churn",
    claim="Section 3 robustness (beyond the paper's static uniform model)",
    tags=("scenario", "noise", "churn"),
)
def run(ctx: RunContext) -> list[Table]:
    """Sweep hot-zone fraction × churn rate at a fixed ε budget."""
    table = Table(
        title=(
            "E17: success rate and round overhead vs hot-zone fraction "
            f"and churn (eps budget {_EPS})"
        ),
        headers=[
            "n",
            "hot_frac",
            "churn",
            "seeds",
            "rounds",
            "success_rate",
            "beep_rounds_per_round",
            "effective_overhead",
        ],
        notes=[
            "zone:<frac> spends the same mean eps budget with the hot "
            "zone at up to 4x the rate; churn re-masks the adjacency once per "
            "simulated round; effective_overhead = beep rounds per "
            "successful simulated round (None when nothing succeeds)",
        ],
    )
    n = 16
    rounds = 2 if ctx.quick else 6
    seeds = (
        [ctx.seed, ctx.seed + 1]
        if ctx.quick
        else [ctx.seed + offset for offset in range(4)]
    )
    topology = Topology(random_regular_graph(n, 3, seed=ctx.seed))
    params = SimulationParameters.for_network(
        n, topology.max_degree, eps=_EPS, gamma=1
    )
    for frac in _FRACTIONS:
        for churn in _CHURNS:
            successes = 0
            for seed in seeds:
                session_seed = derive_seed(seed, "e17-session", frac, churn)
                session_topology = (
                    topology
                    if churn == 0.0
                    else DynamicTopology(
                        topology,
                        period=params.rounds_per_simulated_round,
                        churn=churn,
                        seed=derive_seed(session_seed, "churn"),
                    )
                )
                session = BroadcastSession(
                    session_topology,
                    params,
                    session_seed,
                    channel=_cell_channel(frac, _EPS, session_seed, n),
                )
                message_rng = derive_rng(session_seed, "e17-messages")
                for _round in range(rounds):
                    messages = random_bits_many(
                        message_rng, n, params.message_bits
                    )
                    outcome = session.run_round(messages)
                    successes += 1 if outcome.success else 0
            total = rounds * len(seeds)
            success_rate = successes / total
            beep_rounds = params.rounds_per_simulated_round
            overhead = (
                round(beep_rounds / success_rate, 1) if successes else None
            )
            table.add_row(
                n,
                frac,
                churn,
                len(seeds),
                total,
                success_rate,
                beep_rounds,
                overhead,
            )
    return [table]

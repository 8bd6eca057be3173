"""A3 (ablation) — candidate-set decoding policies.

See docs/ARCHITECTURE.md, "Candidate policies".

The implementation decodes against a candidate scan set instead of the
paper's exhaustive ``2^a`` scan.  This ablation validates the substitution
two ways:

* on a code small enough to scan exhaustively, the exhaustive scan, the
  default in-flight-plus-decoys scan and the in-flight scan alone
  (``num_decoys=0``) produce identical decodings (the per-candidate test
  is the same);
* at scale, sweeping the decoy count shows random decoys are essentially
  never falsely accepted — the intersection test rejects non-transmitted
  codewords by a wide margin, which is exactly why the exhaustive scan is
  informationally unnecessary.
"""

from __future__ import annotations

from ..core.parameters import CandidatePolicy, SimulationParameters
from ..core.round_simulator import BroadcastSession
from ..graphs import Topology, path_graph, random_regular_graph
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run"]


@experiment(
    id="a03",
    title="Ablation: candidate-set decoding policies",
    claim="docs/ARCHITECTURE.md: candidate policies",
    tags=("ablation", "decoding"),
)
def run(ctx: RunContext) -> list[Table]:
    """Policy agreement at small scale; decoy-count robustness at scale."""
    agreement = Table(
        title="A3a: policy agreement on an exhaustively-scannable code",
        headers=["seed", "exhaustive", "oracle+decoys", "in-flight", "all equal"],
    )
    topology = Topology(path_graph(5))
    params = SimulationParameters(message_bits=3, max_degree=2, eps=0.0, c=3)
    messages = [1, 2, 3, 4, 5]
    for trial_seed in range(3 if ctx.quick else 10):
        sessions = [
            BroadcastSession(
                topology, params, trial_seed, policy=CandidatePolicy.EXHAUSTIVE
            ),
            BroadcastSession(topology, params, trial_seed),
            BroadcastSession(topology, params, trial_seed, num_decoys=0),
        ]
        outcomes = [session.run_round(messages) for session in sessions]
        decodings = {
            tuple(tuple(d) for d in outcome.decoded) for outcome in outcomes
        }
        agreement.add_row(
            trial_seed,
            *(outcome.success for outcome in outcomes),
            len(decodings) == 1,
        )

    robustness = Table(
        title="A3b: decoy-count robustness at scale",
        headers=[
            "eps",
            "decoys",
            "trials",
            "round success",
            "phase1 errors (incl. decoy accepts)",
        ],
        notes=[
            "n = 14, Delta = 3; accepting any decoy counts as a phase-1 "
            "error, so flat-at-zero columns mean decoys are never confused "
            "with real transmitters",
        ],
    )
    topology = Topology(random_regular_graph(14, 3, seed=ctx.seed))
    trials = 3 if ctx.quick else 12
    for eps, c in [(0.0, 3), (0.1, 5)]:
        params = SimulationParameters(message_bits=5, max_degree=3, eps=eps, c=c)
        for decoys in (0, 16, 128):
            failures = 0
            phase1 = 0
            for trial in range(trials):
                outcome = BroadcastSession(
                    topology, params, ctx.seed + trial, num_decoys=decoys
                ).run_round([(3 * v + 1) % 32 for v in range(14)])
                failures += not outcome.success
                phase1 += outcome.phase1_errors
            robustness.add_row(
                eps, decoys, trials, 1.0 - failures / trials, phase1
            )
    return [agreement, robustness]

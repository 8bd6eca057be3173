"""A2 (ablation) — the (2ε+1)/4 phase-1 acceptance threshold.

Lemma 9 places the acceptance threshold at ``(2ε+1)/4`` of the codeword
weight: far enough above the expected noise on a *present* codeword's ones
(``ε·weight``) and far enough below the residual intersection of an
*absent* codeword (``≈ (1 - 5/c)·weight`` minus noise).  This ablation
replaces the factor with a sweep and measures both error arms, showing
the paper's choice sits in the operating valley between false rejections
(threshold too low) and false acceptances (threshold too high).
"""

from __future__ import annotations

import numpy as np

from .. import bitstrings as bs
from ..codes import BeepCode
from .context import RunContext
from .spec import experiment
from .table import Table

__all__ = ["run"]


@experiment(
    id="a02",
    title="Ablation: the (2e+1)/4 phase-1 threshold",
    claim="Lemma 9",
    tags=("ablation", "decoding"),
)
def run(ctx: RunContext) -> list[Table]:
    """Sweep the threshold factor; count false accepts/rejects directly."""
    eps = 0.2
    code = BeepCode(input_bits=8, k=4, c=5, seed=ctx.seed)
    paper_factor = (2 * eps + 1) / 4
    table = Table(
        title="A2: phase-1 threshold factor ablation (Lemma 9)",
        headers=[
            "factor",
            "threshold",
            "false rejects",
            "false accepts",
            "total errors",
            "paper's factor",
        ],
        notes=[
            f"eps = {eps}, beep code (8, 4, 1/5); 'factor' scales the "
            "codeword weight; paper uses (2*eps+1)/4 = "
            f"{paper_factor:.3f}",
        ],
    )
    trials = 30 if ctx.quick else 150
    rng = ctx.rng("a02")
    factors = [0.15, 0.25, paper_factor, 0.45, 0.60, 0.80]
    # Pre-generate noisy superimpositions and membership ground truth.
    cases: list[tuple[set[int], np.ndarray]] = []
    for _ in range(trials):
        members = {
            int(v) for v in rng.choice(code.num_codewords, size=4, replace=False)
        }
        union = bs.superimpose([code.encode_int(v) for v in sorted(members)])
        noisy = union ^ (rng.random(code.length) < eps)
        cases.append((members, noisy))
    candidates = list(range(0, code.num_codewords, 3))  # fixed scan set
    # Encode the scan set once; every case's Lemma 9 statistics are then
    # one exact count product (case x candidate), shared by all factors.
    words = code.encode_many(candidates).astype(np.float64)
    not_heard = np.stack([bs.complement(noisy) for _, noisy in cases])
    statistics = not_heard.astype(np.float64) @ words.T
    present = np.array(
        [[candidate in members for candidate in candidates] for members, _ in cases]
    )

    for factor in factors:
        threshold = int(factor * code.weight)
        accepted = statistics < threshold
        false_rejects = int(np.count_nonzero(present & ~accepted))
        false_accepts = int(np.count_nonzero(~present & accepted))
        table.add_row(
            round(factor, 3),
            threshold,
            false_rejects,
            false_accepts,
            false_rejects + false_accepts,
            abs(factor - paper_factor) < 1e-9,
        )
    return [table]

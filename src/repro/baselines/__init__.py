"""Prior-work baselines the paper improves on (Sections 1.2 and 1.4).

* :func:`greedy_distance2_coloring` — the ``G²`` colouring both prior
  simulations sequence transmissions with;
* :func:`simulate_round_tdma` / :class:`TDMABroadcastSimulator` — the
  colour-class TDMA simulation in the style of Beauquier et al. [7]
  (noiseless) and Ashkenazi–Gelles–Leshem [4] (noisy, with per-bit
  repetition + majority); with one colour per node (``range(n)``) it is
  the naive sequential simulation, one slot per node;
* :mod:`~repro.baselines.formulas` — the analytic overhead landscape
  ([7] vs [4] vs this paper).
"""

from .coloring import greedy_distance2_coloring
from .tdma import TDMAOutcome, simulate_round_tdma, tdma_round_length
from .agl import TDMABroadcastSimulator, agl_repetitions
from .formulas import (
    agl_overhead,
    agl_setup,
    beauquier_overhead,
    beauquier_setup,
    ours_broadcast_overhead,
    ours_congest_overhead,
)

__all__ = [
    "greedy_distance2_coloring",
    "TDMAOutcome",
    "simulate_round_tdma",
    "tdma_round_length",
    "TDMABroadcastSimulator",
    "agl_repetitions",
    "agl_overhead",
    "agl_setup",
    "beauquier_overhead",
    "beauquier_setup",
    "ours_broadcast_overhead",
    "ours_congest_overhead",
]

"""Message-passing substrates: CONGEST and Broadcast CONGEST (Section 1.1).

In Broadcast CONGEST every node sends one ``O(log n)``-bit message per round
to *all* neighbours; in CONGEST it may send *different* messages per
neighbour.  Both models deliver all neighbours' messages each round.

Delivery convention: Broadcast CONGEST algorithms receive their neighbours'
messages as an **unattributed multiset** — the strongest guarantee the
beeping simulation of Algorithm 1 can provide (the paper's Footnote 1) —
so any algorithm written against this interface runs unchanged on beeps.
Algorithms needing attribution embed IDs in their messages, exactly as the
paper's Algorithm 3 does.
"""

from .model import MessageCodec, check_message, required_bits
from .context import NodeContext
from .algorithm import BroadcastCongestAlgorithm, CongestAlgorithm
from .network import CongestNetwork, RunResult
from .vectorized import (
    ObjectAlgorithmsAdapter,
    VectorContext,
    VectorizedBroadcastAlgorithm,
    VectorizedBroadcastNetwork,
    WordCodec,
)

__all__ = [
    "MessageCodec",
    "check_message",
    "required_bits",
    "NodeContext",
    "BroadcastCongestAlgorithm",
    "CongestAlgorithm",
    "CongestNetwork",
    "RunResult",
    "ObjectAlgorithmsAdapter",
    "VectorContext",
    "VectorizedBroadcastAlgorithm",
    "VectorizedBroadcastNetwork",
    "WordCodec",
]

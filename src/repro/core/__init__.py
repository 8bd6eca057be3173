"""The paper's primary contribution: optimal message-passing with noisy beeps.

* :class:`SimulationParameters` — the code-parameter engine (paper-strict
  constants of Lemmas 9–10 and practical presets);
* :class:`BroadcastSession` — Algorithm 1: each ``run_round`` is one
  Broadcast CONGEST round in ``O(Δ log n)`` noisy-beep rounds, the code
  pair and channel built once per session and ``reset`` moving its round
  offset;
* :class:`BatchedSession` — ``R`` seed-replicas of one ``(topology,
  params)`` pair executed as a single replica-batched schedule call per
  phase, bit-identical to the per-seed sessions;
* :class:`BeepSimulator` — Theorem 11 / Corollary 12: run entire Broadcast
  CONGEST or CONGEST algorithms on a (noisy) beeping network;
* :mod:`~repro.core.local_broadcast` — the B-bit Local Broadcast problem
  (Definition 13) and its upper bounds (Lemma 15).
"""

from .parameters import (
    CandidatePolicy,
    SimulationParameters,
    paper_strict_c,
    practical_c,
)
from .decoder import phase1_decode, phase2_decode
from .round_simulator import (
    BatchedSession,
    BroadcastSession,
    RoundOutcome,
)
from .stats import SimulationStats
from .transpiler import BeepSimulator, TranspiledRunResult
from .congest_wrapper import CongestViaBroadcast, congest_payload_bits
from .local_broadcast import (
    LocalBroadcastViaBroadcastCongest,
    LocalBroadcastViaCongest,
    run_local_broadcast_bc,
    run_local_broadcast_congest,
)

__all__ = [
    "CandidatePolicy",
    "SimulationParameters",
    "paper_strict_c",
    "practical_c",
    "phase1_decode",
    "phase2_decode",
    "BatchedSession",
    "BroadcastSession",
    "RoundOutcome",
    "SimulationStats",
    "BeepSimulator",
    "TranspiledRunResult",
    "CongestViaBroadcast",
    "congest_payload_bits",
    "LocalBroadcastViaBroadcastCongest",
    "LocalBroadcastViaCongest",
    "run_local_broadcast_bc",
    "run_local_broadcast_congest",
]

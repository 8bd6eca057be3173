"""The paper's primary contribution: optimal message-passing with noisy beeps.

* :class:`SimulationParameters` — the code-parameter engine (paper-strict
  constants of Lemmas 9–10 and practical presets);
* :func:`simulate_broadcast_round` — Algorithm 1: one Broadcast CONGEST
  round in ``O(Δ log n)`` noisy-beep rounds;
* :class:`BroadcastSession` — the amortised multi-round engine behind it
  (codes, channel and decoder matrices built once);
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
from .encoder import build_phase_schedules
from .decoder import phase1_decode, phase2_decode
from .round_simulator import (
    BatchedSession,
    BroadcastSession,
    RoundOutcome,
    simulate_broadcast_round,
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
    "build_phase_schedules",
    "phase1_decode",
    "phase2_decode",
    "BatchedSession",
    "BroadcastSession",
    "RoundOutcome",
    "simulate_broadcast_round",
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

"""A test-only reference round: Algorithm 1 through the reference pieces.

The sessions in :mod:`repro.core.round_simulator` plan and decode
through exact vectorised kernels.  :func:`reference_round` simulates the
same round through the reference implementations instead —
:func:`build_phase_schedules` (the transmission side, row by row, kept
here) → :func:`repro.engine.run_schedule` →
:func:`~repro.core.decoder.phase1_decode` →
:func:`~repro.core.decoder.phase2_decode` — so the oracle tests can
require every session round to equal it field by field.

It shares no code with the sessions beyond those pieces and the code
constructor; the default channel is built inline from its documented
definition.  It draws from the per-round RNG in the session's documented
order: the ``r_v`` values, then the candidate decoys, then the message
decoys.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.beeping.noise import (
    BernoulliNoise,
    DynamicTopology,
    NoiseModel,
    NoiselessChannel,
)
from repro.codes import CombinedCode
from repro.core.decoder import phase1_decode, phase2_decode
from repro.core.parameters import CandidatePolicy, SimulationParameters
from repro.core.round_simulator import RoundOutcome
from repro.engine import run_schedule
from repro.errors import ConfigurationError
from repro.rng import derive_rng, derive_seed, random_bits

__all__ = ["build_phase_schedules", "reference_round", "assert_outcomes_equal"]


def build_phase_schedules(
    combined_code: CombinedCode,
    r_values: Sequence[int],
    messages: Sequence[int | None],
) -> tuple[np.ndarray, np.ndarray]:
    """Build the ``(n, b)`` beep schedules for both phases of Algorithm 1.

    Parameters
    ----------
    combined_code:
        The shared codes ``C`` and ``D``.
    r_values:
        Each node's random string ``r_v`` (as integers).
    messages:
        Each node's message ``m_v`` for this simulated round, or ``None``
        for nodes that stay silent.

    Returns
    -------
    (phase1, phase2):
        Boolean schedule matrices; row ``v`` is node ``v``'s beep pattern.
    """
    if len(r_values) != len(messages):
        raise ConfigurationError(
            f"{len(r_values)} r-values but {len(messages)} messages"
        )
    n = len(r_values)
    b = combined_code.length
    phase1 = np.zeros((n, b), dtype=bool)
    phase2 = np.zeros((n, b), dtype=bool)
    for node in range(n):
        message = messages[node]
        if message is None:
            continue
        phase1[node] = combined_code.beep_code.encode_int(r_values[node])
        phase2[node] = combined_code.encode(r_values[node], message)
    return phase1, phase2


def assert_outcomes_equal(actual: RoundOutcome, expected: RoundOutcome) -> None:
    """Field-by-field equality of two RoundOutcomes."""
    assert actual.decoded == expected.decoded
    assert np.array_equal(actual.per_node_success, expected.per_node_success)
    assert actual.success == expected.success
    assert actual.beep_rounds_used == expected.beep_rounds_used
    assert actual.phase1_errors == expected.phase1_errors
    assert actual.phase2_errors == expected.phase2_errors
    assert actual.r_collision == expected.r_collision
    assert actual.accepted_sets == expected.accepted_sets


def _draw_fresh(
    rng: np.random.Generator,
    bits: int,
    taken: "set[int]",
    budget: int,
    max_draws: "int | None" = None,
) -> "set[int]":
    """Distinct uniform ``bits``-bit values outside ``taken``, draw by draw."""
    taken = set(taken)
    fresh: set[int] = set()
    draws = 0
    while len(fresh) < budget and (max_draws is None or draws < max_draws):
        raw = rng.bytes(max(1, (bits + 7) // 8))
        value = int.from_bytes(raw, "little") & ((1 << bits) - 1)
        draws += 1
        if value not in taken:
            taken.add(value)
            fresh.add(value)
    return fresh


def reference_round(
    topology,
    params: SimulationParameters,
    seed: int,
    messages: "Sequence[int | None]",
    round_offset: int,
    *,
    policy: CandidatePolicy = CandidatePolicy.ORACLE_WITH_DECOYS,
    num_decoys: int = 16,
    channel: "NoiseModel | None" = None,
) -> RoundOutcome:
    """One Broadcast CONGEST round, simulated through the reference pieces.

    Arguments mean what they mean for :class:`~repro.core.BroadcastSession`
    and its ``run_round``; the code pair and the default channel are built
    from ``seed`` exactly as a session builds them.
    """
    n = topology.num_nodes
    codes = params.combined_code(derive_seed(seed, "codes"))
    if channel is None:
        channel = (
            NoiselessChannel()
            if params.eps == 0.0
            else BernoulliNoise(params.eps, derive_seed(seed, "channel"))
        )
    b = codes.length
    senders = [v for v in range(n) if messages[v] is not None]

    # Steps 1-3: r_v draws, both schedules, both beeping phases.
    round_rng = derive_rng(seed, "round-randomness", round_offset)
    r_values = [random_bits(round_rng, params.r_bits) for _ in range(n)]
    phase1, phase2 = build_phase_schedules(codes, r_values, messages)
    heard1 = run_schedule(topology, phase1, channel, start_round=round_offset)
    heard2 = run_schedule(topology, phase2, channel, start_round=round_offset + b)

    # Step 4a: the phase-1 scan over the policy's candidates.
    in_flight = {r_values[v] for v in senders}
    if policy is CandidatePolicy.EXHAUSTIVE:
        candidates = list(range(1 << params.r_bits))
    else:
        budget = min(num_decoys, (1 << params.r_bits) - len(in_flight))
        decoys = _draw_fresh(round_rng, params.r_bits, in_flight, budget)
        candidates = sorted(in_flight | decoys)
    found = phase1_decode(codes.beep_code, heard1, candidates, params.eps)
    accepted = [
        found[v] - ({r_values[v]} if messages[v] is not None else set())
        for v in range(n)
    ]

    # Step 4b: the phase-2 nearest-codeword decode.
    message_set = {messages[v] for v in senders}
    if policy is CandidatePolicy.EXHAUSTIVE:
        message_candidates = list(range(1 << params.message_bits))
    elif policy is CandidatePolicy.ORACLE_WITH_DECOYS and message_set:
        budget = min(num_decoys, (1 << params.message_bits) - len(message_set))
        decoys = _draw_fresh(
            round_rng,
            params.message_bits,
            message_set,
            budget,
            max_draws=20 * num_decoys,
        )
        message_candidates = sorted(message_set | decoys)
    else:
        message_candidates = sorted(message_set)
    if message_candidates:
        decoded_maps = phase2_decode(codes, heard2, accepted, message_candidates)
    else:
        decoded_maps = [{} for _ in range(n)]

    # Ground truth: the mask in force at the round's first beeping round.
    truth_topology = (
        topology.topology_at(round_offset)
        if isinstance(topology, DynamicTopology)
        else topology
    )
    heard_from = [
        [int(u) for u in truth_topology.neighbors[v] if messages[int(u)] is not None]
        for v in range(n)
    ]
    decoded = [
        sorted(entry.message for entry in decoded_maps[v].values())
        for v in range(n)
    ]
    per_node_success = np.asarray(
        [decoded[v] == sorted(messages[u] for u in heard_from[v]) for v in range(n)],
        dtype=bool,
    )
    true_sets = [{r_values[u] for u in heard_from[v]} for v in range(n)]
    transmitted = [r_values[v] for v in senders]
    return RoundOutcome(
        decoded=decoded,
        per_node_success=per_node_success,
        success=bool(per_node_success.all()),
        beep_rounds_used=2 * b,
        phase1_errors=sum(accepted[v] != true_sets[v] for v in range(n)),
        phase2_errors=sum(
            1
            for v in range(n)
            if accepted[v] == true_sets[v] and not per_node_success[v]
        ),
        r_collision=len(set(transmitted)) != len(transmitted),
        accepted_sets=accepted,
    )

"""Whole-round oracle: every session round equals the reference pieces.

``BroadcastSession.run_round`` and every ``BatchedSession`` replica must
return exactly what :func:`reference_round.reference_round` computes from
the reference encoder and decoders — across the three candidate scans
(exhaustive, the default in-flight values plus decoys, and the in-flight
values alone), noiseless and noisy channels, the scenario channels, a
churning topology, a noise-window-straddling offset, silent nodes and a
forced ``r_v`` collision, with the scan and heterogeneous-noise cases
run under both phase-1 counting kernels.  The kernel-level comparisons stay
in ``tests/core/test_batched_session.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_round import assert_outcomes_equal, reference_round
from repro.beeping.noise import AdversarialNoise, DynamicTopology, HeterogeneousNoise
from repro.core.parameters import CandidatePolicy, SimulationParameters
from repro.core.round_simulator import BatchedSession, BroadcastSession
from repro.graphs import Topology, path_graph, random_regular_graph
from repro.rng import derive_rng, random_bits

SEEDS = (3, 8)

#: Phase 1's two counting kernels; the size rule picks one per round, so
#: the suites that force each hold both to the reference decoder.
PHASE1_KERNELS = ("gather", "sgemm")

#: The candidate scans, as ``BroadcastSession`` keywords: each policy at
#: its default decoy budget, and the in-flight values alone.
SCANS = {
    "exhaustive": {"policy": CandidatePolicy.EXHAUSTIVE},
    "oracle-with-decoys": {},
    "in-flight": {"num_decoys": 0},
}


def message_rounds(n, message_bits, rounds, *, silent_every=4, seed=0):
    """Per-round message lists; every ``silent_every``-th node stays silent."""
    rng = derive_rng(seed, "oracle-messages")
    return [
        [
            None
            if silent_every and (v + t) % silent_every == 0
            else random_bits(rng, message_bits)
            for v in range(n)
        ]
        for t in range(rounds)
    ]


def check_against_reference(
    topology, params, rounds, *, start=0, channels=None, **scan
):
    """Run ``rounds`` on standalone sessions, and on a batched session
    unless ``scan`` (``policy``, ``num_decoys``) leaves the default scan;
    compare each to the reference round at the same offset.  Returns the
    reference outcomes keyed by ``(seed, round index)``."""
    channels = list(channels) if channels is not None else [None] * len(SEEDS)
    expected = {}
    for seed, channel in zip(SEEDS, channels):
        offset = start
        for t, messages in enumerate(rounds):
            expected[seed, t] = reference_round(
                topology, params, seed, messages, offset, channel=channel, **scan
            )
            offset += expected[seed, t].beep_rounds_used
    for seed, channel in zip(SEEDS, channels):
        session = BroadcastSession(topology, params, seed, channel=channel, **scan)
        session.reset(start)
        for t, messages in enumerate(rounds):
            assert_outcomes_equal(session.run_round(messages), expected[seed, t])
    if scan:
        return expected
    batched = BatchedSession(topology, params, SEEDS, channels=channels)
    batched.reset(start)
    for t, messages in enumerate(rounds):
        outcomes = batched.run_round([messages] * len(SEEDS))
        for seed, outcome in zip(SEEDS, outcomes):
            assert_outcomes_equal(outcome, expected[seed, t])
    return expected


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.2])
@pytest.mark.parametrize("scan", SCANS)
def test_policies_and_noise_rates(scan, eps, force_phase1):
    # c = 3 keeps EXHAUSTIVE's 2^12-candidate scan small; under noise it is
    # undersized on purpose, so decoding errors are compared too (at
    # eps = 0.2 some nodes decode messages nobody sent).
    topology = Topology(random_regular_graph(12, 3, seed=7))
    params = SimulationParameters(message_bits=4, max_degree=3, eps=eps, c=3)
    for kernel in PHASE1_KERNELS:
        force_phase1(kernel)
        expected = check_against_reference(
            topology, params, message_rounds(12, 4, rounds=2), **SCANS[scan]
        )
        if eps:
            assert not all(outcome.success for outcome in expected.values())


def test_decoys_decoded_under_heavy_noise():
    # Far too little redundancy for eps = 0.35: message decoys win phase 2
    # at many nodes, and in a sparse 8-bit message space a shifted decoy
    # stream replaces them, so the outcome pins the session's draw order.
    topology = Topology(random_regular_graph(12, 3, seed=7))
    params = SimulationParameters(message_bits=8, max_degree=3, eps=0.35, c=3)
    rounds = message_rounds(12, 8, rounds=2)
    expected = check_against_reference(topology, params, rounds)
    sent = [{m for m in messages if m is not None} for messages in rounds]
    assert any(
        m not in sent[t]
        for (_, t), outcome in expected.items()
        for node_messages in outcome.decoded
        for m in node_messages
    )


def _scenario_params():
    return SimulationParameters(message_bits=6, max_degree=3, eps=0.1, c=5)


@pytest.mark.parametrize("kernel", ["dense", "bitpacked"])
def test_heterogeneous_noise(kernel, force_kernel, force_phase1):
    force_kernel(kernel)
    topology = Topology(random_regular_graph(12, 3, seed=7))
    channels = [
        HeterogeneousNoise(np.linspace(0.0, 0.3, 12), seed=seed) for seed in SEEDS
    ]
    for phase1_kernel in PHASE1_KERNELS:
        force_phase1(phase1_kernel)
        check_against_reference(
            topology,
            _scenario_params(),
            message_rounds(12, 6, rounds=2),
            channels=channels,
        )


@pytest.mark.parametrize("kernel", ["dense", "bitpacked"])
def test_adversarial_noise(kernel, force_kernel):
    force_kernel(kernel)
    topology = Topology(random_regular_graph(12, 3, seed=7))
    channels = [AdversarialNoise(0.15, seed=seed) for seed in SEEDS]
    check_against_reference(
        topology,
        _scenario_params(),
        message_rounds(12, 6, rounds=2),
        channels=channels,
    )


def test_dynamic_topology():
    base = Topology(random_regular_graph(12, 3, seed=7))
    params = _scenario_params()
    # Epochs shorter than a phase, so masks change inside every round.
    topology = DynamicTopology(
        base, period=700, churn=0.2, edge_failure=0.1, seed=5
    )
    assert topology.period < params.beep_code_length
    check_against_reference(topology, params, message_rounds(12, 6, rounds=2))


@pytest.mark.parametrize("scan", ["oracle-with-decoys", "in-flight"])
def test_window_straddling_offset(scan):
    # Noise is drawn in 4096-round windows; the first phase starts six
    # rounds before a window boundary.
    topology = Topology(random_regular_graph(12, 3, seed=7))
    check_against_reference(
        topology,
        _scenario_params(),
        message_rounds(12, 6, rounds=2),
        start=4090,
        **SCANS[scan],
    )


def test_all_silent_round():
    topology = Topology(path_graph(6))
    params = SimulationParameters(message_bits=3, max_degree=2, eps=0.1, c=3)
    check_against_reference(topology, params, [[None] * 6, [1, None] * 3])


@pytest.mark.parametrize("scan", SCANS)
def test_forced_r_collision(scan):
    # r_bits = 3: ten senders share eight values, so some r_v collide, and
    # the decoy budget exceeds the free r-space.
    topology = Topology(path_graph(10))
    params = SimulationParameters(message_bits=1, max_degree=2, eps=0.0, c=3)
    assert params.r_bits == 3
    rounds = message_rounds(10, 1, rounds=2, silent_every=0)
    expected = check_against_reference(topology, params, rounds, **SCANS[scan])
    assert all(outcome.r_collision for outcome in expected.values())

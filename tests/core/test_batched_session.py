"""Tests for BatchedSession and its vectorised-exact kernels.

The contract: outcome ``r`` of a batched round is *bit-identical* —
decoded multisets, accepted sets, error counters, collision flags — to
what the ``r``-th standalone :class:`BroadcastSession` returns on the
same messages, for every policy, channel, kernel and round offset.
Both run the same kernels, so the chaining and policy checks also hold
them to the reference round of ``reference_round.py``.  The fast kernels
(schedule building, phase-1 threshold decode, phase-2 nearest-codeword
decode) are additionally tested value-for-value against their reference
implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_round import assert_outcomes_equal, reference_round
from repro.core.encoder import build_phase_schedules
from repro.core.decoder import phase1_decode, phase2_decode
from repro.core.parameters import CandidatePolicy, SimulationParameters
from repro.core.round_simulator import (
    BatchedSession,
    BroadcastSession,
    _DISTANCE_ROW_CACHE_SIZE,
    _build_phase_schedules_fast,
    _phase1_decode_fast,
    _phase2_decode_fast,
)
from repro.errors import ConfigurationError
from repro.graphs import Topology, path_graph, random_regular_graph, star_graph
from repro.lru import LRUDict
from repro.rng import derive_rng, random_bits


def random_messages(rng, n, message_bits, hole_every=0):
    """A per-node message list, with None holes when hole_every > 0."""
    return [
        None
        if hole_every and v % hole_every == 0
        else random_bits(rng, message_bits)
        for v in range(n)
    ]


class TestBitIdentityWithPerSeedSessions:
    @pytest.mark.parametrize("kernel", ["dense", "bitpacked"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_multi_round_chaining(self, kernel, eps, force_kernel):
        force_kernel(kernel)
        topology = Topology(random_regular_graph(12, 3, seed=7))
        params = SimulationParameters.for_network(12, 3, eps=eps)
        seeds = [11, 23, 37]
        batched = BatchedSession(topology, params, seeds)
        singles = [BroadcastSession(topology, params, seed) for seed in seeds]
        rng = derive_rng(0, "messages")
        for round_index in range(3):
            batch = [
                random_messages(rng, 12, params.message_bits, hole_every=round_index + 3)
                for _ in seeds
            ]
            offset = batched.sessions[0].next_round_offset
            outcomes = batched.run_round(batch)
            for replica, (single, messages) in enumerate(zip(singles, batch)):
                assert_outcomes_equal(outcomes[replica], single.run_round(messages))
                assert_outcomes_equal(
                    outcomes[replica],
                    reference_round(
                        topology, params, seeds[replica], messages, offset
                    ),
                )

    @pytest.mark.parametrize(
        "policy",
        [
            CandidatePolicy.ORACLE_WITH_DECOYS,
            CandidatePolicy.IN_FLIGHT,
            CandidatePolicy.EXHAUSTIVE,
        ],
    )
    def test_policies(self, policy):
        topology = Topology(star_graph(8))
        params = SimulationParameters.for_network(8, 7, eps=0.05)
        seeds = [1, 2]
        batched = BatchedSession(topology, params, seeds, policy=policy)
        singles = [
            BroadcastSession(topology, params, seed, policy=policy)
            for seed in seeds
        ]
        rng = derive_rng(3, "messages")
        batch = [random_messages(rng, 8, params.message_bits) for _ in seeds]
        for replica, outcome in enumerate(batched.run_round(batch)):
            assert_outcomes_equal(outcome, singles[replica].run_round(batch[replica]))
            assert_outcomes_equal(
                outcome,
                reference_round(
                    topology, params, seeds[replica], batch[replica], 0, policy=policy
                ),
            )

    def test_exhaustive_policy(self):
        topology = Topology(path_graph(4))
        params = SimulationParameters(message_bits=2, max_degree=2, eps=0.0, c=3)
        seeds = [5, 9]
        batched = BatchedSession(
            topology, params, seeds, policy=CandidatePolicy.EXHAUSTIVE
        )
        singles = [
            BroadcastSession(topology, params, seed, policy=CandidatePolicy.EXHAUSTIVE)
            for seed in seeds
        ]
        batch = [[1, None, 3, 0], [2, 2, None, 1]]
        for replica, outcome in enumerate(batched.run_round(batch)):
            assert_outcomes_equal(outcome, singles[replica].run_round(batch[replica]))

    def test_run_many_and_reset(self):
        topology = Topology(path_graph(5))
        params = SimulationParameters.for_network(5, 2, eps=0.0)
        batched = BatchedSession(topology, params, [4, 8])
        rng = derive_rng(1, "messages")
        rounds = [
            [random_messages(rng, 5, params.message_bits) for _ in range(2)]
            for _ in range(2)
        ]
        first = batched.run_many(rounds)
        batched.reset()
        again = batched.run_many(rounds)
        for round_outcomes, replay in zip(first, again):
            for outcome, outcome_again in zip(round_outcomes, replay):
                assert_outcomes_equal(outcome, outcome_again)

    def test_explicit_round_offset(self):
        topology = Topology(path_graph(5))
        params = SimulationParameters.for_network(5, 2, eps=0.1)
        batched = BatchedSession(topology, params, [4, 8])
        single = BroadcastSession(topology, params, 4)
        messages = [[1, 2, 3, 0, 1], [2, 1, 0, 3, 2]]
        offset = 5000
        outcomes = batched.run_round(messages, round_offset=offset)
        assert_outcomes_equal(
            outcomes[0], single.run_round(messages[0], round_offset=offset)
        )


class TestBatchedSessionValidation:
    def test_needs_seeds(self):
        topology = Topology(path_graph(4))
        params = SimulationParameters.for_network(4, 2, eps=0.0)
        with pytest.raises(ConfigurationError):
            BatchedSession(topology, params, [])

    def test_replica_count_enforced(self):
        topology = Topology(path_graph(4))
        params = SimulationParameters.for_network(4, 2, eps=0.0)
        batched = BatchedSession(topology, params, [0, 1])
        with pytest.raises(ConfigurationError):
            batched.run_round([[1, 2, 3, 0]])

    def test_properties(self):
        topology = Topology(path_graph(4))
        params = SimulationParameters.for_network(4, 2, eps=0.0)
        batched = BatchedSession(topology, params, [0, 1, 2])
        assert batched.num_replicas == 3
        assert batched.seeds == (0, 1, 2)
        assert batched.topology is topology
        assert batched.params is params
        assert len(batched.sessions) == 3


class TestFastKernels:
    def test_schedule_builder_matches_reference(self):
        params = SimulationParameters.for_network(16, 4, eps=0.05)
        codes = params.combined_code(seed=13)
        rng = derive_rng(7, "inputs")
        n = 16
        r_values = [random_bits(rng, params.r_bits) for _ in range(n)]
        messages = [
            None if v % 5 == 0 else random_bits(rng, params.message_bits)
            for v in range(n)
        ]
        reference = build_phase_schedules(codes, r_values, messages)
        fast = _build_phase_schedules_fast(
            codes, r_values, messages, LRUDict(64)
        )
        assert np.array_equal(reference[0], fast[0])
        assert np.array_equal(reference[1], fast[1])

    def test_schedule_builder_all_silent(self):
        params = SimulationParameters.for_network(4, 2, eps=0.0)
        codes = params.combined_code(seed=1)
        fast = _build_phase_schedules_fast(codes, [0, 1, 2, 3], [None] * 4, LRUDict(8))
        assert not fast[0].any() and not fast[1].any()

    def test_phase1_fast_matches_reference(self):
        params = SimulationParameters.for_network(12, 3, eps=0.1)
        codes = params.combined_code(seed=3)
        rng = derive_rng(9, "heard")
        heard = rng.random((12, codes.length)) < 0.4
        candidates = [random_bits(rng, params.r_bits) for _ in range(20)]
        reference = phase1_decode(codes.beep_code, heard, candidates, params.eps)
        fast = _phase1_decode_fast(codes.beep_code, heard, candidates, params.eps)
        assert reference == fast
        assert _phase1_decode_fast(codes.beep_code, heard, [], params.eps) == [
            set() for _ in range(12)
        ]

    def test_phase2_fast_matches_reference(self):
        params = SimulationParameters.for_network(12, 3, eps=0.1)
        codes = params.combined_code(seed=5)
        rng = derive_rng(11, "heard2")
        heard = rng.random((12, codes.length)) < 0.5
        r_pool = [random_bits(rng, params.r_bits) for _ in range(8)]
        accepted = [
            {r_pool[int(i)] for i in rng.choice(8, size=int(rng.integers(0, 4)), replace=False)}
            for _ in range(12)
        ]
        message_candidates = sorted(
            {random_bits(rng, params.message_bits) for _ in range(10)}
        )
        reference = phase2_decode(codes, heard, accepted, message_candidates)
        fast = _phase2_decode_fast(codes, heard, accepted, message_candidates)
        assert reference == fast

    def test_phase2_fast_single_candidate_margin(self):
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        codes = params.combined_code(seed=2)
        rng = derive_rng(13, "heard3")
        heard = rng.random((6, codes.length)) < 0.5
        accepted = [{random_bits(rng, params.r_bits)} for _ in range(6)]
        reference = phase2_decode(codes, heard, accepted, [3])
        fast = _phase2_decode_fast(codes, heard, accepted, [3])
        assert reference == fast


class TestDistanceRowCacheBound:
    def test_session_distance_rows_stay_bounded(self):
        """Regression: the per-session distance-row cache is LRU-bounded.

        Rounds with a stream of fresh messages (plus fresh decoys) must
        not grow the cache past its limit — recurring messages stay
        resident, one-shot rows get evicted.
        """
        topology = Topology(path_graph(6))
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        session = BroadcastSession(topology, params, 0)
        assert session._distance_rows.limit == _DISTANCE_ROW_CACHE_SIZE
        # Shrink the bound so a short run exercises eviction.
        session._distance_rows.limit = 8
        rng = derive_rng(17, "messages")
        for _ in range(6):
            session.run_round(
                [random_bits(rng, params.message_bits) for _ in range(6)]
            )
        assert len(session._distance_rows) <= 8

    def test_batched_replicas_have_independent_bounded_caches(self):
        topology = Topology(path_graph(6))
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        batched = BatchedSession(topology, params, [0, 1])
        rng = derive_rng(19, "messages")
        for _ in range(3):
            batched.run_round(
                [
                    [random_bits(rng, params.message_bits) for _ in range(6)]
                    for _ in range(2)
                ]
            )
        for session in batched.sessions:
            assert len(session._distance_rows) <= _DISTANCE_ROW_CACHE_SIZE
            assert len(session._distance_rows) > 0

"""Tests for BatchedSession and its vectorised-exact kernels.

The contract: outcome ``r`` of a batched round is *bit-identical* —
decoded multisets, accepted sets, error counters, collision flags — to
what the ``r``-th standalone :class:`BroadcastSession` returns on the
same messages, for every channel, kernel and round offset.  Both run
the same kernels, so the chaining checks also hold them to the reference
round of ``reference_round.py``.  The fast kernels
(the schedule buffer the round driver hands the executor, both phase-1
counting kernels, phase-2 nearest-codeword decode) are additionally
tested value-for-value against their reference implementations, along
with the strict Lemma 9 threshold, the size rule that picks the phase-1
kernel and the round's memory.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from reference_round import (
    assert_outcomes_equal,
    build_phase_schedules,
    reference_round,
)
from repro.core.decoder import phase1_decode, phase2_decode
from repro.core.parameters import CandidatePolicy, SimulationParameters
from repro.core import round_simulator
from repro.core.round_simulator import (
    BatchedSession,
    BroadcastSession,
    _DISTANCE_ROW_CACHE_SIZE,
    _phase1_pairs,
    _phase2_nearest,
    _plan_round,
)
from repro.errors import ConfigurationError
from repro.graphs import Topology, path_graph, random_regular_graph, star_graph
from repro.rng import derive_rng, random_bits


PHASE1_KERNELS = ("gather", "sgemm")


def distance_matrix(codes, messages):
    """The boolean ``D(m)`` rows of ``messages``, in order."""
    return np.stack(
        [np.asarray(codes.distance_code.encode_int(m), dtype=bool) for m in messages]
    )


def spy_schedule_calls(monkeypatch):
    """Record ``(copy, schedules, heard)`` for every executor call.

    ``copy`` is the schedule buffer as it was handed in, taken before
    the call because the round driver writes phase 2 over the buffer
    phase 1 ran from; ``schedules`` is that buffer itself.
    """
    calls = []
    original = round_simulator.run_schedule_batch

    def spy(topology, schedules, *args):
        before = schedules.copy()
        heard = original(topology, schedules, *args)
        calls.append((before, schedules, heard))
        return heard

    monkeypatch.setattr(round_simulator, "run_schedule_batch", spy)
    return calls


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

    def test_star_under_noise(self):
        topology = Topology(star_graph(8))
        params = SimulationParameters.for_network(8, 7, eps=0.05)
        seeds = [1, 2]
        batched = BatchedSession(topology, params, seeds)
        singles = [BroadcastSession(topology, params, seed) for seed in seeds]
        rng = derive_rng(3, "messages")
        batch = [random_messages(rng, 8, params.message_bits) for _ in seeds]
        for replica, outcome in enumerate(batched.run_round(batch)):
            assert_outcomes_equal(outcome, singles[replica].run_round(batch[replica]))
            assert_outcomes_equal(
                outcome,
                reference_round(topology, params, seeds[replica], batch[replica], 0),
            )

    def test_reset_replays_rounds(self):
        topology = Topology(path_graph(5))
        params = SimulationParameters.for_network(5, 2, eps=0.0)
        batched = BatchedSession(topology, params, [4, 8])
        rng = derive_rng(1, "messages")
        rounds = [
            [random_messages(rng, 5, params.message_bits) for _ in range(2)]
            for _ in range(2)
        ]
        first = [batched.run_round(messages) for messages in rounds]
        batched.reset()
        for round_outcomes, messages in zip(first, rounds):
            for outcome, again in zip(round_outcomes, batched.run_round(messages)):
                assert_outcomes_equal(outcome, again)

    def test_explicit_round_offset(self):
        topology = Topology(path_graph(5))
        params = SimulationParameters.for_network(5, 2, eps=0.1)
        batched = BatchedSession(topology, params, [4, 8])
        single = BroadcastSession(topology, params, 4)
        messages = [[1, 2, 3, 0, 1], [2, 1, 0, 3, 2]]
        offset = 5000
        batched.reset(offset)
        single.reset(offset)
        outcomes = batched.run_round(messages)
        assert_outcomes_equal(outcomes[0], single.run_round(messages[0]))


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
    def test_schedule_builder_matches_reference(self, monkeypatch):
        """Each replica's slice of the buffer the round driver hands the
        executor is the reference encoder's schedule, phase by phase."""
        params = SimulationParameters.for_network(16, 4, eps=0.05)
        topology = Topology(random_regular_graph(16, 4, seed=13))
        rng = derive_rng(7, "inputs")
        seeds = [13, 14]
        batch = [random_messages(rng, 16, params.message_bits, 5) for _ in seeds]
        batched = BatchedSession(topology, params, seeds)
        calls = spy_schedule_calls(monkeypatch)
        batched.run_round(batch)
        assert len(calls) == 2
        for r, (seed, messages) in enumerate(zip(seeds, batch)):
            round_rng = derive_rng(seed, "round-randomness", 0)
            r_values = [random_bits(round_rng, params.r_bits) for _ in range(16)]
            reference = build_phase_schedules(
                batched.sessions[r].codes, r_values, messages
            )
            for (captured, _, _), expected in zip(calls, reference):
                assert np.array_equal(captured[r], expected)

    def test_schedule_builder_all_silent(self, monkeypatch):
        topology = Topology(path_graph(4))
        params = SimulationParameters.for_network(4, 2, eps=0.0)
        calls = spy_schedule_calls(monkeypatch)
        BroadcastSession(topology, params, 1).run_round([None] * 4)
        assert len(calls) == 2
        assert not any(captured.any() for captured, _, _ in calls)

    def test_phase1_fast_matches_reference(self, force_phase1):
        params = SimulationParameters.for_network(12, 3, eps=0.1)
        codes = params.combined_code(seed=3)
        rng = derive_rng(9, "heard")
        candidates = sorted({random_bits(rng, params.r_bits) for _ in range(20)})
        positions = codes.beep_code.encode_positions(candidates)
        # Noise plus two superimposed candidates per node, so the test
        # sees acceptances as well as rejections.
        heard = rng.random((12, codes.length)) < 0.4
        for v in range(12):
            heard[v, positions[[v, v + 5]].ravel()] = True
        reference = phase1_decode(codes.beep_code, heard, candidates, params.eps)
        assert any(reference)
        threshold = codes.beep_code.decoding_threshold(params.eps)
        for kernel in PHASE1_KERNELS:
            force_phase1(kernel)
            nodes, rows = _phase1_pairs(heard, positions, threshold)
            # Node-major, candidates ascending within a node.
            assert np.array_equal(np.lexsort((rows, nodes)), np.arange(len(nodes)))
            fast = [set() for _ in range(12)]
            for v, row in zip(nodes.tolist(), rows.tolist()):
                fast[v].add(candidates[row])
            assert fast == reference
        no_candidates = np.zeros((0, positions.shape[1]), dtype=np.int64)
        for kernel in PHASE1_KERNELS:
            force_phase1(kernel)
            for empty in _phase1_pairs(heard, no_candidates, threshold):
                assert empty.size == 0

    def test_phase2_fast_matches_reference(self, monkeypatch):
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
        pairs = [(v, r) for v in range(12) for r in sorted(accepted[v])]
        expected = [reference[v][r].message for v, r in pairs]
        codewords = distance_matrix(codes, message_candidates)
        # The real limit runs float32 scores; 2 forces the int64 path.
        for limit in (round_simulator._EXACT_FLOAT32_LIMIT, 2):
            monkeypatch.setattr(round_simulator, "_EXACT_FLOAT32_LIMIT", limit)
            best = _phase2_nearest(
                heard,
                np.asarray([v for v, _ in pairs]),
                codes.beep_code.encode_positions([r for _, r in pairs]),
                codewords,
            )
            assert [message_candidates[i] for i in best] == expected

    def test_phase2_fast_single_candidate(self):
        params = SimulationParameters.for_network(6, 2, eps=0.0)
        codes = params.combined_code(seed=2)
        rng = derive_rng(13, "heard3")
        heard = rng.random((6, codes.length)) < 0.5
        accepted = [{random_bits(rng, params.r_bits)} for _ in range(6)]
        reference = phase2_decode(codes, heard, accepted, [3])
        assert all(entry.message == 3 for node in reference for entry in node.values())
        best = _phase2_nearest(
            heard,
            np.arange(6),
            codes.beep_code.encode_positions([min(r) for r in accepted]),
            distance_matrix(codes, [3]),
        )
        assert best.tolist() == [0] * 6


class TestPhase1Threshold:
    def test_acceptance_is_strictly_below_threshold(self, force_phase1):
        """Lemma 9 accepts a candidate when *fewer than* ``threshold`` of
        its positions are silent: a node missing exactly ``threshold``
        rejects it and a node missing ``threshold − 1`` accepts it."""
        params = SimulationParameters.for_network(6, 2, eps=0.1)
        codes = params.combined_code(seed=4)
        threshold = codes.beep_code.decoding_threshold(params.eps)
        assert threshold > 1
        positions = codes.beep_code.encode_positions([5])
        heard = np.ones((2, codes.length), dtype=bool)
        heard[0, positions[0, :threshold]] = False
        heard[1, positions[0, : threshold - 1]] = False
        reference = phase1_decode(codes.beep_code, heard, [5], params.eps)
        assert reference == [set(), {5}]
        for kernel in PHASE1_KERNELS:
            force_phase1(kernel)
            nodes, rows = _phase1_pairs(heard, positions, threshold)
            assert (nodes.tolist(), rows.tolist()) == ([1], [0])


class TestPhase1SizeRule:
    def test_kernel_by_size(self, monkeypatch):
        ran: list[str] = []
        for name in ("_phase1_counts_gather", "_phase1_counts_sgemm"):
            original = getattr(round_simulator, name)

            def spy(*args, _original=original, _name=name):
                ran.append(_name)
                return _original(*args)

            monkeypatch.setattr(round_simulator, name, spy)
        cases = [
            (127, 129, "_phase1_counts_sgemm"),  # K·n = 2^14 − 1
            (128, 128, "_phase1_counts_gather"),  # K·n = 2^14
        ]
        for candidates, n, expected in cases:
            ran.clear()
            positions = np.tile(np.arange(4), (candidates, 1))
            heard = np.zeros((n, 8), dtype=bool)
            heard[:, :3] = True
            nodes, rows = round_simulator._phase1_pairs(heard, positions, 2)
            assert ran == [expected], (candidates, n)
            # One of four positions silent everywhere: every pair passes.
            assert len(nodes) == candidates * n


class TestFusedPlan:
    """``_plan_round`` derives every replica's codewords in one encode
    stage; each plan must equal the one its session makes alone."""

    def sessions(self, topology):
        """Four replicas with distinct seeds: the Floyd code whose
        Lemire draw rejects at value 22803 (seed 0, b = 5184), a code in
        numpy's tail-shuffle branch (b = 21312, w = 592), another Floyd
        code and an exhaustive one, whose full domains go through the
        same encode stage."""
        floyd = SimulationParameters(message_bits=9, max_degree=8, eps=0.02, c=4)
        tail = SimulationParameters(message_bits=37, max_degree=8, eps=0.02, c=4)
        tiny = SimulationParameters(message_bits=3, max_degree=8, eps=0.0, c=3)
        return [
            BroadcastSession(topology, floyd, 0, codes=floyd.combined_code(0)),
            BroadcastSession(topology, tail, 1),
            BroadcastSession(topology, floyd, 2),
            BroadcastSession(
                topology, tiny, 3, policy=CandidatePolicy.EXHAUSTIVE
            ),
        ]

    def test_fused_plans_equal_standalone_plans(self, monkeypatch):
        # Every 36-bit candidate list also gets 22803, so the first
        # replica's plan needs the reference fallback inside the fused pass.
        original = round_simulator._draw_decoys

        def with_rejecting_value(rng, bits, taken, num_decoys, max_draws=None):
            decoys = original(rng, bits, taken, num_decoys, max_draws)
            return decoys | {22803} if bits == 36 else decoys

        monkeypatch.setattr(round_simulator, "_draw_decoys", with_rejecting_value)
        topology = Topology(random_regular_graph(12, 3, seed=5))
        fused, alone = self.sessions(topology), self.sessions(topology)
        assert fused[1].codes.length == 21312 and fused[1].codes.beep_code.weight == 592
        rng = derive_rng(8, "fused")
        for round_index in range(3):
            # Messages from a few values, so rows recur: LRU hits and misses.
            messages = [
                [
                    None if v % 5 == round_index else random_bits(rng, 2) << shift
                    for v in range(12)
                ]
                for shift in (7, 35, 7, 1)
            ]
            for session in fused + alone:
                session.reset(1000 * round_index)
            plans = _plan_round(fused, messages)
            for session, plan, replica_messages in zip(alone, plans, messages):
                [single] = _plan_round([session], [replica_messages])
                for field in ("positions", "codewords", "own", "message_index"):
                    assert np.array_equal(getattr(plan, field), getattr(single, field))
                assert list(plan.candidates) == list(single.candidates)
                assert list(plan.message_candidates) == list(single.message_candidates)
                codes = session.codes
                for value, row in zip(plan.candidates, plan.positions):
                    assert np.array_equal(
                        row, np.flatnonzero(codes.beep_code.encode_int(value))
                    )
                for message, row in zip(plan.message_candidates, plan.codewords):
                    assert np.array_equal(row, codes.distance_code.encode_int(message))
            assert 22803 in plans[0].candidates and 22803 in plans[2].candidates
        for mine, theirs in zip(fused, alone):
            assert list(mine._distance_rows) == list(theirs._distance_rows)
            for message in list(theirs._distance_rows):
                assert np.array_equal(
                    mine._distance_rows.get(message), theirs._distance_rows.get(message)
                )
        assert len(fused[0]._distance_rows) > 0


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


class TestRoundMemory:
    def test_traced_peak_of_a_warm_round(self):
        """A warm batched round stays under ``5·R·n·b`` traced bytes.

        Both beeping phases share one ``(R, n, b)`` schedule buffer, so
        the round holds three boolean stacks (the buffer and both heard
        stacks) plus the kernels' working sets, about 1.2·R·n·b more.
        One more schedule stack per round would break the bound.
        """
        n, replicas = 128, 8
        topology = Topology(random_regular_graph(n, 8, seed=0))
        params = SimulationParameters.for_network(n, 8, eps=0.02)
        b = params.beep_code_length
        assert b == 4032
        batched = BatchedSession(topology, params, range(replicas))
        rng = derive_rng(0, "memory")
        batch = [random_messages(rng, n, params.message_bits) for _ in range(replicas)]
        batched.run_round(batch)  # warm: code tables and row caches
        tracemalloc.start()
        try:
            batched.run_round(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * replicas * n * b

    def test_phase1_heard_is_freed_before_phase2(self, monkeypatch):
        """Phase 1's heard stack is decoded into pairs and dropped before
        phase 2 runs, and the round's traced peak stays near two stacks.

        A warm n=128, R=8 round peaks at about 2.87·R·n·b: the schedule
        buffer and one heard stack, plus the kernels' working sets.
        Keeping phase 1's heard stack through phase 2, or the buffer
        through the finishes, breaks the ``3.25·R·n·b`` bound.
        """
        n, replicas = 128, 8
        topology = Topology(random_regular_graph(n, 8, seed=0))
        params = SimulationParameters.for_network(n, 8, eps=0.02)
        b = params.beep_code_length
        batched = BatchedSession(topology, params, range(replicas))
        rng = derive_rng(0, "memory")
        batch = [random_messages(rng, n, params.message_bits) for _ in range(replicas)]
        batched.run_round(batch)  # warm: code tables and row caches
        original = round_simulator.run_schedule_batch
        heard_refs = []
        alive_at_phase2 = []

        def spy(*args):
            if heard_refs:  # phase 2 starts: phase 1's stack must be gone
                alive_at_phase2.append(heard_refs[0]() is not None)
            heard = original(*args)
            heard_refs.append(weakref.ref(heard))
            return heard

        monkeypatch.setattr(round_simulator, "run_schedule_batch", spy)
        tracemalloc.start()
        try:
            batched.run_round(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert alive_at_phase2 == [False]
        assert peak < 3.25 * replicas * n * b

    @pytest.mark.parametrize("kernel", ["dense", "bitpacked"])
    def test_heard_never_aliases_the_schedule_buffer(
        self, kernel, force_kernel, monkeypatch
    ):
        """Phase 2 is written over the buffer phase 1 ran from, which is
        safe only while the executor returns fresh heard arrays."""
        force_kernel(kernel)
        topology = Topology(path_graph(6))
        params = SimulationParameters.for_network(6, 2, eps=0.05)
        calls = spy_schedule_calls(monkeypatch)
        BroadcastSession(topology, params, 3).run_round([1, 2, None, 3, 0, 1])
        assert len(calls) == 2
        for _, schedules, heard in calls:
            assert not np.shares_memory(heard, schedules)

"""Tests for BroadcastSession: exact reproduction of standalone rounds plus
one-time construction of codes, channel, and decoder matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.beeping import (
    BeepingNetwork,
    BernoulliNoise,
    NoiselessChannel,
    ScheduledProtocol,
)
from repro.codes.beep import BeepCode
from repro.codes.distance import DistanceCode
from repro.core import (
    BatchedSession,
    BroadcastSession,
    CandidatePolicy,
    SimulationParameters,
    simulate_broadcast_round,
)
from repro.engine import run_schedule, run_schedule_batch
from repro.errors import ConfigurationError
from repro.graphs import Topology, path_graph


def _assert_outcomes_equal(actual, expected):
    assert actual.decoded == expected.decoded
    assert np.array_equal(actual.per_node_success, expected.per_node_success)
    assert actual.success == expected.success
    assert actual.beep_rounds_used == expected.beep_rounds_used
    assert actual.phase1_errors == expected.phase1_errors
    assert actual.phase2_errors == expected.phase2_errors
    assert actual.r_collision == expected.r_collision
    assert actual.accepted_sets == expected.accepted_sets


def _message_rounds(n, count):
    return [
        [(round_index * 7 + v * 3) % 64 for v in range(n)]
        for round_index in range(count)
    ] + [[None if v % 2 else (v % 64) for v in range(n)]]


class TestRunManyReproducesStandaloneCalls:
    def test_noiseless(self, regular12, small_params):
        rounds = _message_rounds(12, 3)
        session = BroadcastSession(regular12, small_params, seed=3)
        outcomes = session.run_many(rounds)
        offset = 0
        for messages, outcome in zip(rounds, outcomes):
            reference = simulate_broadcast_round(
                regular12, messages, small_params, seed=3, round_offset=offset
            )
            offset += reference.beep_rounds_used
            _assert_outcomes_equal(outcome, reference)
        assert session.next_round_offset == offset

    def test_noisy(self, regular12, noisy_params):
        rounds = _message_rounds(12, 1)
        session = BroadcastSession(regular12, noisy_params, seed=5)
        outcomes = session.run_many(rounds)
        offset = 0
        for messages, outcome in zip(rounds, outcomes):
            reference = simulate_broadcast_round(
                regular12, messages, noisy_params, seed=5, round_offset=offset
            )
            offset += reference.beep_rounds_used
            _assert_outcomes_equal(outcome, reference)

    def test_backends_agree_across_session_rounds(
        self, regular12, noisy_params, force_kernel
    ):
        rounds = _message_rounds(12, 1)
        force_kernel("bitpacked")
        packed = BroadcastSession(regular12, noisy_params, seed=8).run_many(rounds)
        force_kernel("dense")
        dense = BroadcastSession(regular12, noisy_params, seed=8).run_many(rounds)
        for a, b in zip(packed, dense):
            _assert_outcomes_equal(a, b)

    def test_explicit_offset_override(self, regular12, small_params):
        session = BroadcastSession(regular12, small_params, seed=3)
        messages = [v % 64 for v in range(12)]
        b2 = 2 * session.codes.length
        skipped = session.run_round(messages, round_offset=5 * b2)
        reference = simulate_broadcast_round(
            regular12, messages, small_params, seed=3, round_offset=5 * b2
        )
        _assert_outcomes_equal(skipped, reference)
        assert session.next_round_offset == 6 * b2

    def test_reset_rewinds(self, regular12, small_params):
        session = BroadcastSession(regular12, small_params, seed=3)
        messages = [v % 64 for v in range(12)]
        first = session.run_round(messages)
        session.reset()
        again = session.run_round(messages)
        _assert_outcomes_equal(again, first)
        with pytest.raises(ConfigurationError):
            session.reset(-1)

    def test_run_many_with_offset_matches_fresh_session(
        self, regular12, small_params
    ):
        rounds = _message_rounds(12, 2)
        fresh = BroadcastSession(regular12, small_params, seed=4).run_many(rounds)
        reused = BroadcastSession(regular12, small_params, seed=4)
        reused.run_round([1] * 12)  # advance the offset
        rewound = reused.run_many(rounds, round_offset=0)
        for a, b in zip(fresh, rewound):
            _assert_outcomes_equal(a, b)


class TestAmortisation:
    def test_codes_and_channel_built_once(
        self, regular12, small_params, monkeypatch
    ):
        calls: list[int] = []
        original = SimulationParameters.combined_code

        def counting(self, seed):
            calls.append(seed)
            return original(self, seed)

        monkeypatch.setattr(SimulationParameters, "combined_code", counting)
        session = BroadcastSession(regular12, small_params, seed=3)
        channel = session.channel
        codes = session.codes
        session.run_many(_message_rounds(12, 2))
        assert len(calls) == 1
        assert session.channel is channel and session.codes is codes

    def test_exhaustive_matrices_built_once(self, monkeypatch):
        topology = Topology(path_graph(4))
        params = SimulationParameters(message_bits=3, max_degree=2, eps=0.0, c=3)
        session = BroadcastSession(
            topology, params, seed=5, policy=CandidatePolicy.EXHAUSTIVE
        )
        messages = [1, 2, 3, 4]
        session.run_round(messages)  # builds both exhaustive matrices

        beep_calls: list[int] = []
        distance_calls: list[int] = []
        original_beep = BeepCode.encode_int
        original_distance = DistanceCode.encode_int

        def counting_beep(self, value):
            beep_calls.append(value)
            return original_beep(self, value)

        def counting_distance(self, value):
            distance_calls.append(value)
            return original_distance(self, value)

        monkeypatch.setattr(BeepCode, "encode_int", counting_beep)
        monkeypatch.setattr(DistanceCode, "encode_int", counting_distance)
        second = session.run_round(messages)
        second_round_beep_calls = len(beep_calls)
        second_round_distance_calls = list(distance_calls)
        reference = simulate_broadcast_round(
            topology,
            messages,
            params,
            seed=5,
            round_offset=2 * session.codes.length,
            policy=CandidatePolicy.EXHAUSTIVE,
        )
        _assert_outcomes_equal(second, reference)
        # r_bits = 9 → 512 phase-1 candidates; message space 8.  A fresh
        # decode would re-encode all of them; the session only encodes the
        # handful of codewords the *schedules and extraction* touch.
        r_space = 1 << params.r_bits
        assert second_round_beep_calls < r_space // 4
        # The phase-2 matrix is reused outright: every distance encode in
        # round 2 came from schedule building (the 4 in-flight messages),
        # not from rebuilding the 8-codeword matrix.
        assert set(second_round_distance_calls) <= set(messages)

    def test_exhaustive_limits_checked_at_construction(self, regular12):
        params = SimulationParameters(message_bits=16, max_degree=3, eps=0.0, c=3)
        with pytest.raises(ConfigurationError):
            BroadcastSession(
                regular12, params, seed=0, policy=CandidatePolicy.EXHAUSTIVE
            )


class TestSessionValidation:
    def test_degree_checked_at_construction(self, star8, small_params):
        with pytest.raises(ConfigurationError):
            BroadcastSession(star8, small_params, seed=0)

    def test_message_count_checked(self, path6, small_params):
        session = BroadcastSession(path6, small_params, seed=0)
        with pytest.raises(ConfigurationError):
            session.run_round([1, 2])

    def test_message_width_checked(self, path6, small_params):
        session = BroadcastSession(path6, small_params, seed=0)
        with pytest.raises(ConfigurationError):
            session.run_round([1 << 20] + [1] * 5)


@pytest.mark.parametrize("eps", [0.0, 0.1], ids=["noiseless", "bernoulli"])
class TestNegativeOffsetsRejected:
    """A negative global round is the one-line error on every channel.

    Each entry point checks the offset where it enters, before anything
    runs: no noise window is keyed and no session offset moves.
    """

    def _params(self, eps):
        return SimulationParameters(
            message_bits=6, max_degree=3, eps=eps, c=5 if eps else 3
        )

    def _channel(self, eps):
        return BernoulliNoise(eps, seed=3) if eps else NoiselessChannel()

    def test_session_round_offset(self, regular12, eps):
        session = BroadcastSession(regular12, self._params(eps), seed=1)
        with pytest.raises(ConfigurationError, match="round_offset must be >= 0"):
            session.run_round([v % 64 for v in range(12)], round_offset=-1)
        assert session.next_round_offset == 0

    def test_batched_session_round_offset(self, regular12, eps):
        batched = BatchedSession(regular12, self._params(eps), seeds=[1, 2])
        messages = [[v % 64 for v in range(12)]] * 2
        with pytest.raises(ConfigurationError, match="round_offset must be >= 0"):
            batched.run_round(messages, round_offset=-1)
        assert [s.next_round_offset for s in batched.sessions] == [0, 0]

    def test_schedule_start_round(self, regular12, eps):
        channel = self._channel(eps)
        schedule = np.zeros((12, 8), dtype=bool)
        schedule[0, ::2] = True
        with pytest.raises(ConfigurationError, match="start rounds must be >= 0"):
            run_schedule(regular12, schedule, channel, start_round=-1)
        with pytest.raises(ConfigurationError, match="start rounds must be >= 0"):
            run_schedule_batch(regular12, schedule[np.newaxis], [channel], [-1])

    def test_beeping_network_start_round(self, regular12, eps):
        network = BeepingNetwork(regular12, self._channel(eps))
        protocols = [ScheduledProtocol(np.ones(4, dtype=bool)) for _ in range(12)]
        with pytest.raises(ConfigurationError, match="start_round must be >= 0"):
            network.run(protocols, max_rounds=4, start_round=-2)

"""Tests for BroadcastSession: rounds chain their offsets, ``reset``
replays any round exactly, and the codes and channel are built once."""

from __future__ import annotations

import numpy as np
import pytest

from repro.beeping import (
    BeepingNetwork,
    BernoulliNoise,
    NoiselessChannel,
    ScheduledProtocol,
)
from repro.core import (
    BatchedSession,
    BroadcastSession,
    CandidatePolicy,
    SimulationParameters,
)
from repro.core import round_simulator
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


def _rewound_round(topology, params, seed, messages, offset, **scan):
    """One round of a fresh session reset to ``offset``."""
    session = BroadcastSession(topology, params, seed, **scan)
    session.reset(offset)
    return session.run_round(messages)


class TestRoundsChainOffsets:
    """``reset(k · 2b)`` followed by ``run_round`` is round ``k`` of a
    chained session."""

    def test_noiseless(self, regular12, small_params):
        rounds = _message_rounds(12, 3)
        session = BroadcastSession(regular12, small_params, seed=3)
        offset = 0
        for messages in rounds:
            outcome = session.run_round(messages)
            reference = _rewound_round(regular12, small_params, 3, messages, offset)
            offset += reference.beep_rounds_used
            _assert_outcomes_equal(outcome, reference)
        assert session.next_round_offset == offset

    def test_noisy(self, regular12, noisy_params):
        rounds = _message_rounds(12, 1)
        session = BroadcastSession(regular12, noisy_params, seed=5)
        offset = 0
        for messages in rounds:
            outcome = session.run_round(messages)
            reference = _rewound_round(regular12, noisy_params, 5, messages, offset)
            offset += reference.beep_rounds_used
            _assert_outcomes_equal(outcome, reference)

    def test_backends_agree_across_session_rounds(
        self, regular12, noisy_params, force_kernel
    ):
        rounds = _message_rounds(12, 1)
        force_kernel("bitpacked")
        session = BroadcastSession(regular12, noisy_params, seed=8)
        packed = [session.run_round(messages) for messages in rounds]
        force_kernel("dense")
        session = BroadcastSession(regular12, noisy_params, seed=8)
        dense = [session.run_round(messages) for messages in rounds]
        for a, b in zip(packed, dense):
            _assert_outcomes_equal(a, b)

    def test_explicit_offset_override(self, regular12, small_params):
        session = BroadcastSession(regular12, small_params, seed=3)
        messages = [v % 64 for v in range(12)]
        b2 = 2 * session.codes.length
        session.reset(5 * b2)
        skipped = session.run_round(messages)
        chained = BroadcastSession(regular12, small_params, seed=3)
        for other in _message_rounds(12, 4):
            chained.run_round(other)
        _assert_outcomes_equal(skipped, chained.run_round(messages))
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

    def test_reset_replays_a_fresh_session(self, regular12, small_params):
        rounds = _message_rounds(12, 2)
        session = BroadcastSession(regular12, small_params, seed=4)
        fresh = [session.run_round(messages) for messages in rounds]
        reused = BroadcastSession(regular12, small_params, seed=4)
        reused.run_round([1] * 12)  # advance the offset
        reused.reset(0)
        for outcome, messages in zip(fresh, rounds):
            _assert_outcomes_equal(outcome, reused.run_round(messages))


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
        for messages in _message_rounds(12, 2):
            session.run_round(messages)
        assert len(calls) == 1
        assert session.channel is channel and session.codes is codes

    def test_exhaustive_second_round(self, monkeypatch):
        """An exhaustive round scans the full domains through the same
        encode stage and distance-row LRU as any other candidate list."""
        topology = Topology(path_graph(4))
        params = SimulationParameters(message_bits=3, max_degree=2, eps=0.0, c=3)
        session = BroadcastSession(
            topology, params, seed=5, policy=CandidatePolicy.EXHAUSTIVE
        )
        messages = [1, 2, 3, 4]
        session.run_round(messages)  # fills the LRU with all 8 message rows

        requests: list[list[tuple[object, list[int]]]] = []
        original = round_simulator.encode_batch

        def spy(batch):
            requests.append([(code, list(values)) for code, values in batch])
            return original(batch)

        monkeypatch.setattr(round_simulator, "encode_batch", spy)
        second = session.run_round(messages)
        # One encode stage: r_bits = 9 → all 512 beep candidates; the
        # 8-message space is served by the LRU, so no distance row.
        [[(beep_code, candidates), (distance_code, misses)]] = requests
        assert beep_code is session.codes.beep_code
        assert candidates == list(range(1 << params.r_bits))
        assert distance_code is session.codes.distance_code and misses == []
        assert len(session._distance_rows) == 1 << params.message_bits
        reference = _rewound_round(
            topology,
            params,
            5,
            messages,
            2 * session.codes.length,
            policy=CandidatePolicy.EXHAUSTIVE,
        )
        _assert_outcomes_equal(second, reference)

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
            session.reset(-1)
        assert session.next_round_offset == 0

    def test_batched_session_round_offset(self, regular12, eps):
        batched = BatchedSession(regular12, self._params(eps), seeds=[1, 2])
        with pytest.raises(ConfigurationError, match="round_offset must be >= 0"):
            batched.reset(-1)
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

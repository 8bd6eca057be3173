"""Tests for the round-by-round beeping engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.beeping import (
    Action,
    BeepingNetwork,
    BernoulliNoise,
    ScheduledProtocol,
)
from repro.beeping.node import BeepingProtocol
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.graphs import Topology, path_graph, star_graph


class _AlwaysBeep(BeepingProtocol):
    def act(self, round_index):
        return Action.BEEP

    def observe(self, round_index, heard):
        pass


class _Listener(BeepingProtocol):
    def __init__(self):
        self.heard = []

    def act(self, round_index):
        return Action.LISTEN

    def observe(self, round_index, heard):
        self.heard.append(heard)


class _BadProtocol(BeepingProtocol):
    def act(self, round_index):
        return "beep"  # not an Action

    def observe(self, round_index, heard):
        pass


class TestEngineSemantics:
    def test_listener_hears_neighbor_beep(self, path6):
        protocols = [_Listener() for _ in range(6)]
        protocols[0] = _AlwaysBeep()
        BeepingNetwork(path6).run(protocols, max_rounds=1, stop_when_finished=False)
        assert protocols[1].heard == [True]
        assert protocols[2].heard == [False]

    def test_beeper_observes_own_beep(self):
        t = Topology(path_graph(2))
        record = []

        class Recorder(BeepingProtocol):
            def act(self, round_index):
                return Action.BEEP

            def observe(self, round_index, heard):
                record.append(heard)

        BeepingNetwork(t).run(
            [Recorder(), _Listener()], max_rounds=1, stop_when_finished=False
        )
        assert record == [True]

    def test_or_semantics_multiple_beepers(self):
        t = Topology(star_graph(4))
        hub = _Listener()
        protocols = [hub, _AlwaysBeep(), _AlwaysBeep(), _Listener()]
        BeepingNetwork(t).run(protocols, max_rounds=1, stop_when_finished=False)
        assert hub.heard == [True]
        # leaves hear only the hub (silent), not each other
        assert protocols[3].heard == [False]

    def test_silence_everywhere(self, path6):
        protocols = [_Listener() for _ in range(6)]
        BeepingNetwork(path6).run(protocols, max_rounds=3, stop_when_finished=False)
        assert all(p.heard == [False] * 3 for p in protocols)

    def test_protocol_count_checked(self, path6):
        with pytest.raises(ConfigurationError):
            BeepingNetwork(path6).run([_Listener()], max_rounds=1)

    def test_bad_action_rejected(self, path6):
        protocols = [_BadProtocol() for _ in range(6)]
        with pytest.raises(ProtocolViolationError):
            BeepingNetwork(path6).run(protocols, max_rounds=1)

    def test_negative_rounds_rejected(self, path6):
        with pytest.raises(ConfigurationError):
            BeepingNetwork(path6).run(
                [_Listener() for _ in range(6)], max_rounds=-1
            )


class TestScheduledProtocol:
    def test_follows_schedule_and_records(self):
        t = Topology(path_graph(2))
        schedule = np.array([True, False, True])
        sender = ScheduledProtocol(schedule)
        receiver = ScheduledProtocol(np.zeros(3, dtype=bool))
        BeepingNetwork(t).run([sender, receiver], max_rounds=3)
        assert np.array_equal(receiver.heard, schedule)
        # sender hears its own beeps
        assert np.array_equal(sender.heard, schedule)

    def test_finished_after_schedule(self):
        protocol = ScheduledProtocol(np.zeros(2, dtype=bool))
        assert not protocol.finished
        protocol.observe(0, False)
        protocol.observe(1, False)
        assert protocol.finished

    def test_listens_beyond_schedule(self):
        protocol = ScheduledProtocol(np.array([True]))
        assert protocol.act(5) is Action.LISTEN

    def test_rejects_2d_schedule(self):
        with pytest.raises(ConfigurationError):
            ScheduledProtocol(np.zeros((2, 2), dtype=bool))


class TestTraceAndStopping:
    def test_early_stop_when_finished(self, path6):
        protocols = [ScheduledProtocol(np.zeros(2, dtype=bool)) for _ in range(6)]
        assert BeepingNetwork(path6).run(protocols, max_rounds=100) == 2

    def test_noise_applied_with_start_round(self):
        t = Topology(path_graph(2))
        channel = BernoulliNoise(0.4, seed=7)
        listeners = [_Listener(), _Listener()]
        BeepingNetwork(t, channel).run(
            listeners, max_rounds=64, start_round=100, stop_when_finished=False
        )
        # silence + noise -> some flips should appear
        assert any(listeners[0].heard)

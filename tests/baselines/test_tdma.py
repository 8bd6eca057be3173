"""Tests for the colour-class TDMA baseline simulator."""

from __future__ import annotations

import pytest

from repro.baselines import (
    greedy_distance2_coloring,
    simulate_round_tdma,
    tdma_round_length,
)
from repro.beeping import BernoulliNoise
from repro.errors import ConfigurationError
from repro.graphs import Topology, gnp_graph, path_graph, star_graph


class TestNoiselessTDMA:
    def test_round_delivers_all_messages(self, sparse20):
        colors = greedy_distance2_coloring(sparse20)
        messages = [(v * 5 + 1) % 64 for v in range(20)]
        outcome = simulate_round_tdma(sparse20, messages, colors, message_bits=6)
        assert outcome.success

    def test_round_length_formula(self, sparse20):
        colors = greedy_distance2_coloring(sparse20)
        outcome = simulate_round_tdma(
            sparse20, [1] * 20, colors, message_bits=6
        )
        assert outcome.beep_rounds_used == tdma_round_length(
            max(colors) + 1, 6, 1
        )

    def test_silent_nodes_skipped(self):
        t = Topology(path_graph(4))
        colors = greedy_distance2_coloring(t)
        messages = [7, None, 9, None]
        outcome = simulate_round_tdma(t, messages, colors, message_bits=4)
        assert outcome.success
        assert outcome.decoded[1] == [7, 9]
        assert outcome.decoded[0] == []

    def test_zero_message_distinguished_from_silence(self):
        t = Topology(path_graph(3))
        colors = greedy_distance2_coloring(t)
        outcome = simulate_round_tdma(t, [0, None, 0], colors, message_bits=4)
        assert outcome.success
        assert outcome.decoded[1] == [0, 0]

    def test_invalid_coloring_rejected(self, sparse20):
        with pytest.raises(ConfigurationError):
            simulate_round_tdma(sparse20, [1] * 20, [0] * 20, message_bits=4)

    def test_bad_repetitions_rejected(self, sparse20):
        colors = greedy_distance2_coloring(sparse20)
        with pytest.raises(ConfigurationError):
            simulate_round_tdma(
                sparse20, [1] * 20, colors, message_bits=4, repetitions=0
            )


class TestNoisyTDMA:
    def test_repetition_defeats_mild_noise(self, sparse20):
        colors = greedy_distance2_coloring(sparse20)
        messages = [(v * 3) % 16 for v in range(20)]
        outcome = simulate_round_tdma(
            sparse20,
            messages,
            colors,
            message_bits=4,
            channel=BernoulliNoise(0.1, seed=1),
            repetitions=21,
        )
        assert outcome.success

    def test_no_repetition_fails_under_noise(self, sparse20):
        colors = greedy_distance2_coloring(sparse20)
        messages = [(v * 3) % 16 for v in range(20)]
        failures = sum(
            not simulate_round_tdma(
                sparse20,
                messages,
                colors,
                message_bits=4,
                channel=BernoulliNoise(0.2, seed=s),
                repetitions=1,
            ).success
            for s in range(5)
        )
        assert failures >= 4


class TestNaiveBaseline:
    """The naive sequential simulation is TDMA with one slot per node."""

    def test_delivers_all_messages(self, sparse20):
        messages = [(v * 5 + 1) % 64 for v in range(20)]
        outcome = simulate_round_tdma(sparse20, messages, range(20), message_bits=6)
        assert outcome.success
        assert outcome.beep_rounds_used == 20 * 7

    def test_linear_in_n_not_delta(self):
        # naive cost is n slots even on a path
        t = Topology(path_graph(30))
        outcome = simulate_round_tdma(t, [1] * 30, range(30), message_bits=4)
        assert outcome.beep_rounds_used == 30 * 5

    def test_silent_nodes(self):
        t = Topology(star_graph(4))
        outcome = simulate_round_tdma(
            t, [None, 3, None, 5], range(4), message_bits=4
        )
        assert outcome.success
        assert outcome.decoded[0] == [3, 5]

    def test_noise_with_repetition(self, sparse20):
        outcome = simulate_round_tdma(
            sparse20,
            [(v * 3) % 16 for v in range(20)],
            range(20),
            message_bits=4,
            channel=BernoulliNoise(0.1, seed=2),
            repetitions=21,
        )
        assert outcome.success

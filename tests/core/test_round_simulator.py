"""Tests for Algorithm 1 (``BroadcastSession.run_round``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_round import _draw_fresh
from repro.core import (
    BatchedSession,
    BroadcastSession,
    CandidatePolicy,
    SimulationParameters,
)
from repro.core import round_simulator
from repro.core.round_simulator import _draw_decoys
from repro.errors import ConfigurationError
from repro.graphs import Topology, path_graph, random_regular_graph, star_graph
from repro.rng import derive_rng, random_bits, random_bits_many


class TestNoiselessRound:
    def test_all_nodes_decode_neighbors(self, regular12, small_params):
        messages = [v % 64 for v in range(12)]
        outcome = BroadcastSession(regular12, small_params, 1).run_round(messages)
        assert outcome.success
        assert outcome.phase1_errors == 0
        assert outcome.phase2_errors == 0
        for v in range(12):
            expected = sorted(messages[int(u)] for u in regular12.neighbors[v])
            assert outcome.decoded[v] == expected

    def test_beep_rounds_is_twice_code_length(self, regular12, small_params):
        outcome = BroadcastSession(regular12, small_params, 1).run_round([1] * 12)
        assert outcome.beep_rounds_used == 2 * small_params.beep_code_length

    def test_duplicate_messages_kept_as_multiset(self, star8):
        params = SimulationParameters(message_bits=6, max_degree=7, eps=0.0, c=3)
        messages = [5] * 8  # every leaf sends 5
        outcome = BroadcastSession(star8, params, 2).run_round(messages)
        assert outcome.success
        assert outcome.decoded[0] == [5] * 7  # hub hears seven copies

    def test_silent_nodes_not_decoded(self, path6, small_params):
        messages = [10, None, 30, None, 50, 60]
        outcome = BroadcastSession(path6, small_params, 3).run_round(messages)
        assert outcome.success
        assert outcome.decoded[0] == []  # only neighbour (1) was silent
        assert outcome.decoded[1] == [10, 30]

    def test_all_silent(self, path6, small_params):
        outcome = BroadcastSession(path6, small_params, 3).run_round([None] * 6)
        assert outcome.success
        assert all(d == [] for d in outcome.decoded)

    def test_deterministic_under_seed(self, regular12, small_params):
        messages = [v % 64 for v in range(12)]
        a = BroadcastSession(regular12, small_params, 9).run_round(messages)
        b = BroadcastSession(regular12, small_params, 9).run_round(messages)
        assert a.decoded == b.decoded
        assert np.array_equal(a.per_node_success, b.per_node_success)


class TestNoisyRound:
    def test_high_success_at_practical_constants(self, regular12, noisy_params):
        messages = [v % 64 for v in range(12)]
        successes = sum(
            BroadcastSession(regular12, noisy_params, s).run_round(messages).success
            for s in range(8)
        )
        assert successes >= 7

    def test_degraded_at_undersized_constants(self, regular12):
        """With c too small for the noise level, decoding visibly degrades —
        the redundancy really is doing the work."""
        params = SimulationParameters(message_bits=6, max_degree=3, eps=0.2, c=3)
        messages = [v % 64 for v in range(12)]
        failures = sum(
            not BroadcastSession(regular12, params, s).run_round(messages).success
            for s in range(6)
        )
        assert failures >= 1


class TestCandidatePolicies:
    def test_exhaustive_matches_oracle_small(self):
        topology = Topology(path_graph(4))
        params = SimulationParameters(message_bits=3, max_degree=2, eps=0.0, c=3)
        messages = [1, 2, 3, 4]
        exhaustive = BroadcastSession(
            topology, params, 5, policy=CandidatePolicy.EXHAUSTIVE
        ).run_round(messages)
        oracle = BroadcastSession(
            topology, params, 5, policy=CandidatePolicy.ORACLE_WITH_DECOYS
        ).run_round(messages)
        assert exhaustive.decoded == oracle.decoded
        assert exhaustive.success and oracle.success

    def test_in_flight_scan(self, regular12, small_params):
        outcome = BroadcastSession(
            regular12, small_params, 5, num_decoys=0
        ).run_round([v % 64 for v in range(12)])
        assert outcome.success

    def test_exhaustive_refuses_large_spaces(self, regular12):
        params = SimulationParameters(message_bits=16, max_degree=3, eps=0.0, c=3)
        with pytest.raises(ConfigurationError):
            BroadcastSession(
                regular12, params, 0, policy=CandidatePolicy.EXHAUSTIVE
            )

    def test_decoys_do_not_break_decoding(self, regular12, small_params):
        outcome = BroadcastSession(
            regular12, small_params, 5, num_decoys=64
        ).run_round([v % 64 for v in range(12)])
        assert outcome.success


class TestValidation:
    def test_message_count_checked(self, path6, small_params):
        with pytest.raises(ConfigurationError):
            BroadcastSession(path6, small_params, 0).run_round([1, 2])

    def test_message_width_checked(self, path6, small_params):
        with pytest.raises(ConfigurationError):
            BroadcastSession(path6, small_params, 0).run_round([1 << 20] + [1] * 5)

    def test_degree_bound_checked(self, star8, small_params):
        # star has Delta = 7 > params.max_degree = 3
        with pytest.raises(ConfigurationError):
            BroadcastSession(star8, small_params, 0)

    def test_accepted_sets_exclude_own_codeword(self, path6, small_params):
        outcome = BroadcastSession(path6, small_params, 7).run_round(
            [1, 2, 3, 4, 5, 6]
        )
        # each node's accepted set has exactly its neighbours' entries
        for v in range(6):
            assert len(outcome.accepted_sets[v]) == len(path6.neighbors[v])


class TestMessageDecoys:
    """Budget behaviour of the phase-2 decoy draw (capped at 20 draws per
    decoy), especially in message spaces too small to host the requested
    number of decoys."""

    def test_space_exhausted_fills_entire_domain(self):
        # 2-bit space: 3 real candidates leave room for exactly 1 decoy
        result = _draw_decoys(derive_rng(0, "t"), 2, {0, 1, 2}, 16, max_draws=320)
        assert result == {3}

    def test_full_space_is_a_no_op(self):
        rng = derive_rng(0, "t")
        assert _draw_decoys(rng, 1, {0, 1}, 16, max_draws=320) == set()
        assert rng.bytes(4) == derive_rng(0, "t").bytes(4)

    def test_zero_decoys_requested(self):
        result = _draw_decoys(derive_rng(0, "t"), 4, {3, 5}, 0, max_draws=0)
        assert result == set()

    def test_decoys_avoid_taken_values(self):
        result = _draw_decoys(derive_rng(1, "t"), 6, {9, 2}, 4, max_draws=80)
        assert not result & {9, 2}
        assert len(result) == 4

    def test_decoys_within_message_space(self):
        bits = 3
        result = _draw_decoys(derive_rng(2, "t"), bits, {0}, 5, max_draws=100)
        assert all(0 <= value < (1 << bits) for value in result)
        assert len(result) == 5  # 1 real + 5 decoys fit in an 8-value space

    def test_attempt_cap_terminates_with_tight_space(self):
        # 7 of 8 values taken: one decoy slot, mostly colliding draws.  The
        # attempt cap (20 * num_decoys) guarantees termination either way.
        result = _draw_decoys(
            derive_rng(3, "t"), 3, set(range(7)), 1, max_draws=20
        )
        assert result <= {7}

    def test_simulated_round_in_tiny_message_space(self, path6):
        """End-to-end: a round whose message space cannot host the default
        16 decoys still runs and decodes."""
        params = SimulationParameters(message_bits=2, max_degree=3, eps=0.0, c=3)
        messages = [v % 4 for v in range(6)]
        outcome = BroadcastSession(path6, params, 11, num_decoys=16).run_round(
            messages
        )
        assert outcome.success


class TestRandomStrings:
    @pytest.mark.parametrize("bits", [1, 7, 8, 9, 31, 32, 33, 36, 64, 65, 127])
    def test_one_bytes_call_equals_per_node_draws(self, bits):
        """``random_bits_many`` (the plan's ``r_v`` draw) reads all nodes
        from one ``Generator.bytes`` call: the same values as one
        ``random_bits`` call per node, and the stream left where those
        calls leave it."""
        batched = derive_rng(bits, "r-values")
        reference = derive_rng(bits, "r-values")
        values = random_bits_many(batched, 13, bits)
        assert values == [random_bits(reference, bits) for _ in range(13)]
        assert batched.bytes(7) == reference.bytes(7)
        assert batched.random() == reference.random()

    def test_no_nodes_draws_nothing(self):
        batched = derive_rng(0, "r-values")
        assert random_bits_many(batched, 0, 20) == []
        assert batched.bytes(4) == derive_rng(0, "r-values").bytes(4)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            random_bits_many(derive_rng(0, "r-values"), 3, 0)


class TestCandidateDecoys:
    """Budget behaviour of the phase-1 decoy draw (uncapped) in r-spaces
    with fewer free values than the requested number of decoys."""

    def test_space_exhausted_fills_entire_domain(self):
        # 3-bit r-space: 2 in flight leave room for exactly 6 decoys.
        result = _draw_decoys(derive_rng(0, "t"), 3, {1, 6}, 16)
        assert result == set(range(8)) - {1, 6}

    def test_round_on_two_node_network_terminates(self):
        """Regression: for_network(2, 1) gives r_bits = 3, an 8-value
        r-space against the default 16 decoys; the decoy draw used to loop
        forever."""
        topology = Topology(path_graph(2))
        params = SimulationParameters.for_network(2, 1, eps=0.0)
        assert 1 << params.r_bits < 16
        outcome = BroadcastSession(topology, params, 0).run_round([1, 0])
        assert outcome.success
        assert outcome.decoded == [[0], [1]]
        batched = BatchedSession(topology, params, [0, 1])
        outcomes = batched.run_round([[1, 0], [0, 1]])
        assert [o.decoded for o in outcomes] == [[[0], [1]], [[1], [0]]]


class TestDecoySampler:
    """``_draw_decoys`` batches its draws through ``random_bits_many``;
    the reference draws one value per ``Generator.bytes`` call.  Both must
    pick the same decoys and leave the generator in the same place."""

    @given(
        seed=st.integers(0, 2**32),
        bits=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 31, 33, 64, 79]),
        taken=st.sets(st.integers(0, 2**79 - 1), max_size=12),
        num_decoys=st.integers(0, 20),
        capped=st.booleans(),
    )
    def test_matches_one_draw_at_a_time(self, seed, bits, taken, num_decoys, capped):
        taken = {value & ((1 << bits) - 1) for value in taken}
        budget = min(num_decoys, (1 << bits) - len(taken))
        max_draws = 20 * num_decoys if capped else None
        batched = derive_rng(seed, "decoys")
        reference = derive_rng(seed, "decoys")
        decoys = _draw_decoys(batched, bits, taken, num_decoys, max_draws)
        assert decoys == _draw_fresh(reference, bits, taken, budget, max_draws)
        assert batched.bytes(16) == reference.bytes(16)

    @given(
        seed=st.integers(0, 2**32),
        free=st.integers(0, 8),
        num_decoys=st.integers(0, 20),
        capped=st.booleans(),
    )
    def test_fewer_free_values_than_budget(self, seed, free, num_decoys, capped):
        """An 8-bit space with at most eight free values: most draws
        collide, the budget shrinks to the free values, and the cap
        often ends the loop inside a batch.  Uncapped, every free value
        is drawn once the budget covers them all."""
        bits = 8
        taken = set(range(free, 1 << bits))
        budget = min(num_decoys, free)
        max_draws = 20 * num_decoys if capped else None
        batched = derive_rng(seed, "tight")
        reference = derive_rng(seed, "tight")
        decoys = _draw_decoys(batched, bits, taken, num_decoys, max_draws)
        assert decoys == _draw_fresh(reference, bits, taken, budget, max_draws)
        assert batched.bytes(16) == reference.bytes(16)
        if not capped and num_decoys >= free:
            assert decoys == set(range(free))

    def test_overdraw_stops_on_the_cap_inside_a_chunk(self, monkeypatch):
        """Two free values in an 8-bit space and a cap of seven draws: the
        exact-count first call's two draws collide, the over-draw asks
        for a whole chunk, and the cap ends the scan five values into it.
        The rewind must leave the generator after exactly seven draws."""
        requested = []

        def spy(rng, count, bits):
            requested.append(count)
            return random_bits_many(rng, count, bits)

        monkeypatch.setattr(round_simulator, "random_bits_many", spy)
        taken = set(range(2, 256))
        batched = derive_rng(0, "cap")
        reference = derive_rng(0, "cap")
        decoys = _draw_decoys(batched, 8, taken, 2, max_draws=7)
        assert decoys == _draw_fresh(reference, 8, taken, 2, max_draws=7)
        assert len(decoys) < 2  # the cap, not the budget, ended the loop
        assert requested[0] == 2 and requested[1] > 7 - 2
        assert batched.bytes(16) == reference.bytes(16)

"""Tests for B-bit Local Broadcast (Definition 13, Lemma 15)."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    run_local_broadcast_bc,
    run_local_broadcast_congest,
)
from repro.graphs import local_broadcast_hard_instance
from tests.algorithms.per_node_oracle import BroadcastCongestNetwork


class TestBroadcastCongestSolution:
    @pytest.mark.parametrize("delta,bits", [(2, 4), (3, 8), (4, 12), (5, 20)])
    def test_correct_and_round_exact(self, delta, bits):
        instance = local_broadcast_hard_instance(
            delta, 2 * delta + 1, bits, seed=3
        )
        report = run_local_broadcast_bc(instance)
        assert report.correct
        assert report.rounds_used == report.predicted_rounds

    def test_round_count_formula(self):
        # Lemma 15: Delta * ceil(B / payload)
        instance = local_broadcast_hard_instance(3, 8, 10, seed=1)
        budget = 2 * 3 + 4  # id_bits = 3 for ids < 8, payload = 4
        report = run_local_broadcast_bc(instance, budget_bits=budget)
        assert report.predicted_rounds == 3 * math.ceil(10 / 4)
        assert report.correct

    def test_isolated_nodes_output_empty(self):
        instance = local_broadcast_hard_instance(2, 10, 4, seed=2)
        report = run_local_broadcast_bc(instance)
        assert report.correct  # includes isolated nodes outputting {}

    def test_runs_on_the_array_native_engine(self, monkeypatch):
        # The per-node engine is only the tests' oracle; the runner must
        # not reach it.
        def refuse(*args, **kwargs):
            raise AssertionError("per-node Broadcast CONGEST engine used")

        monkeypatch.setattr(BroadcastCongestNetwork, "run", refuse)
        instance = local_broadcast_hard_instance(3, 8, 10, seed=1)
        report = run_local_broadcast_bc(instance, budget_bits=2 * 3 + 4)
        assert report.correct
        assert report.rounds_used == report.predicted_rounds == 3 * 3


class TestCongestSolution:
    @pytest.mark.parametrize("delta,bits", [(2, 4), (3, 8), (4, 16)])
    def test_correct_and_round_exact(self, delta, bits):
        instance = local_broadcast_hard_instance(
            delta, 2 * delta + 1, bits, seed=3
        )
        report = run_local_broadcast_congest(instance)
        assert report.correct
        assert report.rounds_used == report.predicted_rounds

    def test_rounds_independent_of_delta(self):
        # CONGEST solves it in ceil(B / budget) regardless of Delta
        reports = [
            run_local_broadcast_congest(
                local_broadcast_hard_instance(delta, 2 * delta + 1, 12, seed=1),
                budget_bits=4,
            )
            for delta in (2, 4, 6)
        ]
        assert {r.predicted_rounds for r in reports} == {3}
        assert all(r.correct for r in reports)

    def test_bc_needs_delta_factor_more(self):
        # the Delta-factor separation that drives Corollary 16
        instance = local_broadcast_hard_instance(6, 13, 12, seed=1)
        bc = run_local_broadcast_bc(instance)
        congest = run_local_broadcast_congest(instance)
        assert bc.rounds_used >= 6 * congest.rounds_used / 4

"""Tests for the theory calculators and measurement helpers."""

from __future__ import annotations

import pytest

from repro.analysis import (
    fit_linear_factor,
    lemma8_failure_bound,
    lemma9_failure_bound,
    lemma10_failure_bound,
    measure_round_success,
    strict_constraint_table,
    theorem11_failure_bound,
)
from repro.core import SimulationParameters, paper_strict_c
from repro.errors import ConfigurationError
from repro.graphs import Topology, random_regular_graph


class TestFailureBounds:
    def test_lemma8(self):
        assert lemma8_failure_bound(16, 4) == pytest.approx(16.0**-1)

    def test_lemma9_weaker_than_lemma8(self):
        for c in (5, 8, 12):
            assert lemma9_failure_bound(64, c) >= lemma8_failure_bound(64, c)

    def test_lemma10_gamma_dependence(self):
        # n^{gamma + 6 - c gamma}
        assert lemma10_failure_bound(16, 8, gamma=1) == pytest.approx(16.0**-1)
        assert lemma10_failure_bound(16, 8, gamma=2) == pytest.approx(16.0**-8)

    def test_theorem11_union_bound(self):
        single = lemma10_failure_bound(64, 10)
        assert theorem11_failure_bound(64, 10, rounds=7) == pytest.approx(
            min(1.0, 7 * single)
        )

    def test_bounds_capped_at_one(self):
        assert lemma8_failure_bound(16, 3) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            lemma8_failure_bound(1, 4)
        with pytest.raises(ConfigurationError):
            theorem11_failure_bound(16, 8, rounds=-1)


class TestStrictConstraintTable:
    def test_max_matches_paper_strict_c(self):
        import math

        for eps in (0.05, 0.1, 0.2):
            values = [value for _, value in strict_constraint_table(eps)]
            assert math.ceil(max(values)) == paper_strict_c(eps)

    def test_six_constraints_listed(self):
        assert len(strict_constraint_table(0.1)) == 6

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            strict_constraint_table(0.0)


class TestMeasurement:
    def test_noiseless_perfect(self):
        topology = Topology(random_regular_graph(10, 3, seed=1))
        params = SimulationParameters(message_bits=5, max_degree=3, eps=0.0, c=3)
        stats = measure_round_success(topology, params, trials=3, seed=0)
        assert stats.success_rate == 1.0
        assert stats.failed_rounds == 0
        assert stats.phase1_node_errors == 0

    def test_zero_trials_rejected(self):
        topology = Topology(random_regular_graph(10, 3, seed=1))
        params = SimulationParameters(message_bits=5, max_degree=3, eps=0.0, c=3)
        with pytest.raises(ConfigurationError):
            measure_round_success(topology, params, trials=0)


class TestLinearFit:
    def test_exact_line(self):
        assert fit_linear_factor([1, 2, 3], [2, 4, 6]) == pytest.approx(2.0)

    def test_least_squares(self):
        slope = fit_linear_factor([1, 2], [2.1, 3.9])
        assert 1.9 < slope < 2.1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fit_linear_factor([], [])
        with pytest.raises(ConfigurationError):
            fit_linear_factor([0, 0], [1, 2])
        with pytest.raises(ConfigurationError):
            fit_linear_factor([1, 2], [1])

"""Smoke-runs every registered experiment in quick mode and asserts the key
reproduction invariants each table is supposed to demonstrate."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import Table, all_specs, get_spec


def run_quick(experiment_id: str) -> list[Table]:
    spec = get_spec(experiment_id)
    return spec.execute(spec.make_context(profile="quick", seed=0))


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = [f"e{i:02d}" for i in range(1, 18)] + ["a01", "a02", "a03"]
        assert [spec.id for spec in all_specs()] == sorted(expected)

    def test_get_spec_case_insensitive(self):
        assert get_spec("E06") is get_spec("e06")

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            get_spec("e99")


class TestSpecs:
    def test_every_spec_carries_metadata(self):
        for spec in all_specs():
            assert spec.title
            assert spec.claim
            assert spec.tags
            assert spec.id == spec.id.lower()

    def test_duplicate_id_across_modules_rejected(self):
        from repro.experiments.registry import discover
        from repro.experiments.spec import experiment

        discover()  # ensure e06_overhead owns its id before the clash
        with pytest.raises(ConfigurationError):
            # the decorator sees this test module claiming e06, which is
            # already owned by e06_overhead
            @experiment(id="e06", title="imposter")
            def run(ctx):  # pragma: no cover - never executed
                return []

    def test_late_registration_reaches_the_registry(self):
        from repro.experiments import spec as spec_module
        from repro.experiments.spec import experiment

        try:

            @experiment(id="x99", title="late registration", tags=("test",))
            def run(ctx):  # pragma: no cover - never executed
                return []

            assert get_spec("x99").title == "late registration"
            assert "x99" in [spec.id for spec in all_specs()]
        finally:
            del spec_module._REGISTRY["x99"]


@pytest.mark.parametrize("experiment_id", [spec.id for spec in all_specs()])
def test_experiment_runs_and_returns_tables(experiment_id):
    tables = run_quick(experiment_id)
    assert tables, experiment_id
    for table in tables:
        assert isinstance(table, Table)
        assert table.rows, f"{experiment_id}: empty table {table.title}"
        rendered = table.render()
        assert table.title in rendered


class TestKeyInvariants:
    def test_e02_bad_fraction_small(self):
        [table] = run_quick("e02")
        for row in table.rows:
            bad_fraction = row[8]
            assert bad_fraction <= 0.05

    def test_e03_distance_guarantee_holds(self):
        [table] = run_quick("e03")
        for row in table.rows:
            assert row[6] is True  # "holds" column

    def test_e04_noiseless_rows_perfect(self):
        [table] = run_quick("e04")
        for row in table.rows:
            if row[2] == 0.0:  # eps column
                assert row[7] == 0  # node error rate

    def test_e06_ratio_flat(self):
        by_delta, _ = run_quick("e06")
        ratios = {row[4] for row in by_delta.rows}
        assert len(ratios) == 1  # exactly linear in (Delta+1) * B

    def test_e09_all_rounds_match_lemma15(self):
        [table] = run_quick("e09")
        for row in table.rows:
            assert row[5] is True and row[6] is True

    def test_e10_census_injective(self):
        _, census = run_quick("e10")
        for row in census.rows:
            assert row[7] is True and row[8] is True

    def test_e11_matchings_valid(self):
        rounds_table, _ = run_quick("e11")
        for row in rounds_table.rows:
            assert row[6] is True and row[7] is True

    def test_e12_valid_under_noise(self):
        [table] = run_quick("e12")
        for row in table.rows:
            assert row[3] is True  # valid column

    def test_e13_bound_respected(self):
        _, hard = run_quick("e13")
        for row in hard.rows:
            assert row[2] is True and row[5] is True

    def test_e15_improvement_factor_is_min_term(self):
        landscape, _ = run_quick("e15")
        for row in landscape.rows:
            n, delta = row[0], row[1]
            assert row[8] == pytest.approx(min(n / delta, delta))

    def test_e16_both_algorithms_valid(self):
        [table] = run_quick("e16")
        for row in table.rows:
            assert row[3] is True and row[5] is True

    def test_e16_mis_rounds_flat_matching_grows(self):
        [table] = run_quick("e16")
        mis_rounds = [row[2] for row in table.rows]
        matching_rounds = [row[4] for row in table.rows]
        # matching cost grows much faster in Delta than native MIS cost
        assert matching_rounds[-1] / matching_rounds[0] > 1.3
        assert max(mis_rounds) / min(mis_rounds) < 1.3

    def test_a01_cliff_below_preset_and_success_at_it(self):
        [table] = run_quick("a01")
        for row in table.rows:
            eps, c, preset, _, success = row[0], row[1], row[2], row[3], row[4]
            if c >= preset:
                assert success == 1.0, (eps, c)

    def test_a02_paper_threshold_has_zero_errors(self):
        [table] = run_quick("a02")
        paper_rows = [row for row in table.rows if row[5] is True]
        assert paper_rows
        for row in paper_rows:
            assert row[4] == 0  # total errors
        extremes = [row for row in table.rows if row[0] in (0.15, 0.8)]
        assert all(row[4] > 0 for row in extremes)

    def test_a03_policies_agree(self):
        agreement, robustness = run_quick("a03")
        for row in agreement.rows:
            assert row[4] is True
        for row in robustness.rows:
            assert row[3] == 1.0 and row[4] == 0

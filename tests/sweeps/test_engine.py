"""End-to-end sweep engine tests: backends agree, cache replays, math holds."""

from __future__ import annotations

import math

import pytest

from repro import sweeps
from repro.errors import ConfigurationError
from repro.experiments import api
from repro.sweeps import GridSpec, SweepResult
from repro.sweeps.engine import execute_batch, execute_point
from repro.sweeps.result import CELL_KEY, POINT_FIELDS

#: The acceptance-criteria grid: >= 3 families x >= 2 sizes x >= 2 noises.
ACCEPTANCE_GRID = {
    "topologies": ["cycle", "path", "caterpillar"],
    "sizes": [8, 12],
    "noises": [0.0, 0.05],
    "seeds": [0, 1],
    "rounds": 1,
}


def _without_backend(cells: list[dict]) -> list[dict]:
    return [
        {key: value for key, value in cell.items() if key != "backend"}
        for cell in cells
    ]


class TestEndToEnd:
    def test_dense_and_bitpacked_identical_aggregates_and_cache(self, tmp_path):
        cache = tmp_path / "cache"
        dense = sweeps.run(ACCEPTANCE_GRID, backend="dense", cache_dir=cache)
        packed = sweeps.run(ACCEPTANCE_GRID, backend="bitpacked", cache_dir=cache)
        assert len(dense.points) == 3 * 2 * 2 * 2
        assert not any(point["cached"] for point in dense.points)
        # the engine invariant, surfaced at campaign scale: identical
        # aggregate tables (and identical simulated numbers point by
        # point), with only the backend label and timing differing
        assert _without_backend(dense.cells()) == _without_backend(packed.cells())
        timing_free = ("backend", "elapsed", "cached")
        assert [
            {k: v for k, v in point.items() if k not in timing_free}
            for point in dense.points
        ] == [
            {k: v for k, v in point.items() if k not in timing_free}
            for point in packed.points
        ]
        # second runs replay entirely from the on-disk cache
        dense_again = sweeps.run(ACCEPTANCE_GRID, backend="dense", cache_dir=cache)
        assert all(point["cached"] for point in dense_again.points)
        assert _without_backend(dense_again.cells()) == _without_backend(
            dense.cells()
        )

    def test_parallel_matches_serial(self):
        grid = {
            "topologies": ["cycle", "torus"],
            "sizes": [9],
            "noises": [0.0],
            "seeds": [0, 1],
            "rounds": 1,
        }
        serial = sweeps.run(grid)
        parallel = sweeps.run(grid, jobs=3)
        assert serial.cells() == parallel.cells()

    def test_progress_reports_every_point(self):
        messages = []
        sweeps.run(
            {**ACCEPTANCE_GRID, "topologies": ["cycle"], "seeds": [0]},
            progress=messages.append,
        )
        assert len(messages) == 4  # 1 family x 2 sizes x 2 noises x 1 seed
        assert all("cycle broadcast n=" in message for message in messages)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            sweeps.run(ACCEPTANCE_GRID, jobs=0)

    def test_invalid_backend_override_rejected_eagerly(self):
        with pytest.raises(ConfigurationError) as excinfo:
            sweeps.run(ACCEPTANCE_GRID, backend="densse")
        assert "unknown backend 'densse'" in str(excinfo.value)

    def test_backend_override_recorded_in_grid_metadata(self):
        result = sweeps.run(
            {"topologies": ["cycle"], "sizes": [8], "noises": [0.0], "rounds": 1},
            backend="bitpacked",
        )
        # the serialized grid must describe the run that made the points
        assert result.grid["grid"]["backends"] == ["bitpacked"]
        assert sweeps.load_grid(result.grid).backends == ("bitpacked",)

    def test_records_have_exact_schema(self):
        result = sweeps.run(
            {"topologies": ["cycle"], "sizes": [8], "noises": [0.0], "rounds": 1}
        )
        [record] = result.points
        assert tuple(record) == POINT_FIELDS
        assert record["family"] == "cycle"
        assert record["rounds"] == 1
        assert 0.0 <= record["success_rate"] <= 1.0
        assert record["beep_rounds_per_round"] > 0


class TestExecutePoint:
    def test_deterministic_and_backend_independent(self):
        grid = GridSpec.from_dict(
            {"topologies": ["expander"], "sizes": [8], "noises": [0.05], "rounds": 2}
        )
        [dense_point] = grid.expand(backend="dense")
        [packed_point] = grid.expand(backend="bitpacked")
        first = execute_point(dense_point)
        second = execute_point(dense_point)
        packed = execute_point(packed_point)

        def rows(result):
            return result.tables[0].rows

        assert rows(first) == rows(second)
        # identical except the backend label column
        patched = [
            "dense" if value == "bitpacked" else value
            for value in rows(packed)[0]
        ]
        assert patched == list(rows(first)[0])

    def test_result_metadata(self):
        grid = GridSpec.from_dict(
            {"topologies": ["torus"], "sizes": [9], "noises": [0.0], "rounds": 1}
        )
        [point] = grid.expand()
        result = execute_point(point, profile="smoke")
        assert result.profile == "smoke"
        assert result.tags == ("sweep", "torus", "broadcast")
        assert result.experiment_id == point.slug()
        assert result.elapsed > 0


class TestSweepResult:
    def test_aggregation_math(self):
        template = {
            field: 0 for field in POINT_FIELDS
        }
        points = []
        for seed, rate in ((0, 1.0), (1, 0.5), (2, 0.0)):
            record = dict(
                template,
                family="cycle",
                params="",
                n=8,
                eps=0.0,
                backend="auto",
                seed=seed,
                success_rate=rate,
                delta=2,
                cached=False,
            )
            points.append(record)
        result = SweepResult(profile="quick", grid={}, points=points)
        [cell] = result.cells()
        assert cell["seeds"] == 3
        assert cell["success_mean"] == pytest.approx(0.5)
        assert cell["success_std"] == pytest.approx(
            math.sqrt(((0.5) ** 2 + 0 + (0.5) ** 2) / 3)
        )
        assert cell["success_min"] == 0.0
        assert cell["success_max"] == 1.0
        assert cell["delta_mean"] == 2

    def test_cells_group_by_key(self):
        template = {field: 0 for field in POINT_FIELDS}
        points = [
            dict(template, family="cycle", params="", n=8, eps=0.0,
                 backend="auto", seed=seed, success_rate=1.0, cached=False)
            for seed in (0, 1)
        ] + [
            dict(template, family="cycle", params="", n=12, eps=0.0,
                 backend="auto", seed=0, success_rate=1.0, cached=False)
        ]
        result = SweepResult(profile="quick", grid={}, points=points)
        cells = result.cells()
        assert len(cells) == 2
        assert [cell["seeds"] for cell in cells] == [2, 1]
        assert tuple(cells[0])[: len(CELL_KEY)] == CELL_KEY

    def test_malformed_record_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepResult(profile="quick", grid={}, points=[{"family": "x"}])

    def test_json_round_trip(self):
        result = sweeps.run(
            {"topologies": ["cycle"], "sizes": [8], "noises": [0.0], "rounds": 1}
        )
        restored = SweepResult.from_json(result.to_json())
        assert restored.points == result.points
        assert restored.cells() == result.cells()
        assert restored.grid == result.grid

    def test_bad_schema_version_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepResult.from_dict({"schema_version": 99})

    def test_csv_exports(self):
        result = sweeps.run(
            {"topologies": ["cycle"], "sizes": [8], "noises": [0.0], "rounds": 1}
        )
        points_csv = result.points_csv()
        assert points_csv.splitlines()[0] == ",".join(POINT_FIELDS)
        assert len(points_csv.splitlines()) == 2
        cells_csv = result.cells_csv()
        assert cells_csv.startswith("family,")


def _timing_free(result: SweepResult) -> list[dict]:
    return [
        {k: v for k, v in point.items() if k not in ("elapsed", "cached")}
        for point in result.points
    ]


def _per_seed(grid: dict, backend: "str | None" = None) -> list[dict]:
    """Every point of ``grid`` run alone through :func:`execute_point`."""
    records = []
    for point in sweeps.load_grid(grid).expand(backend=backend):
        [record] = execute_point(point).tables[0].records()
        records.append(record)
    return records


class TestReplicaBatching:
    """The seed axis auto-batches without changing a single number."""

    def test_batched_equals_per_seed_reference(self):
        batched = sweeps.run(ACCEPTANCE_GRID)
        assert _timing_free(batched) == _per_seed(ACCEPTANCE_GRID)

    @pytest.mark.parametrize("backend", ["dense", "bitpacked"])
    def test_batched_equals_per_seed_both_backends(self, backend):
        grid = {**ACCEPTANCE_GRID, "sizes": [8]}
        batched = sweeps.run(grid, backend=backend)
        assert _timing_free(batched) == _per_seed(grid, backend=backend)

    def test_randomised_families_fall_back_to_singletons(self):
        # expander graphs re-randomise per seed, so replica groups within
        # a cell are singletons — results must still match the reference.
        grid = {
            "topologies": ["expander"],
            "sizes": [8],
            "noises": [0.0],
            "seeds": [0, 1, 2],
            "rounds": 1,
        }
        batched = sweeps.run(grid)
        assert _timing_free(batched) == _per_seed(grid)

    def test_parallel_batched_matches_serial(self):
        parallel = sweeps.run(ACCEPTANCE_GRID, jobs=3)
        serial = sweeps.run(ACCEPTANCE_GRID)
        assert _timing_free(parallel) == _timing_free(serial)

    def test_execute_batch_rejects_mixed_cells(self):
        spec = sweeps.load_grid(ACCEPTANCE_GRID)
        points = spec.expand()
        mixed = [points[0], points[-1]]  # different family/size/noise
        with pytest.raises(ConfigurationError):
            execute_batch(mixed)

    def test_execute_batch_empty(self):
        assert execute_batch([]) == []

    def test_execute_point_is_a_batch_of_one(self):
        spec = sweeps.load_grid({**ACCEPTANCE_GRID, "seeds": [0]})
        point = spec.expand()[0]
        single = execute_point(point)
        [batched] = execute_batch([point])
        assert single.tables[0].rows == batched.tables[0].rows


#: A scenario grid crossing every noise model with churn on both backends.
SCENARIO_GRID = {
    "topologies": ["cycle"],
    "sizes": [8],
    "noises": [0.05],
    "noise_models": ["bernoulli", "adversarial", "zone:0.25"],
    "churns": [0.0, 0.2],
    "seeds": [0, 1],
    "rounds": 1,
}


class TestScenarioSweeps:
    """The noise_model / churn axes through the full sweep engine."""

    def test_points_carry_axes_and_csv_round_trips(self):
        result = sweeps.run(SCENARIO_GRID)
        assert len(result.points) == 3 * 2 * 2
        for record in result.points:
            assert tuple(record) == POINT_FIELDS
            assert record["noise_model"] in SCENARIO_GRID["noise_models"]
            assert record["churn"] in SCENARIO_GRID["churns"]
        header = result.points_csv().splitlines()[0].split(",")
        assert "noise_model" in header and "churn" in header
        cells_header = result.cells_csv().splitlines()[0].split(",")
        assert "noise_model" in cells_header and "churn" in cells_header
        # one aggregate cell per (model, churn) pair — both join the key
        assert len(result.cells()) == 3 * 2
        restored = SweepResult.from_json(result.to_json())
        assert restored.points == result.points
        assert restored.cells_csv() == result.cells_csv()

    def test_dense_and_bitpacked_identical(self):
        dense = sweeps.run(SCENARIO_GRID, backend="dense")
        packed = sweeps.run(SCENARIO_GRID, backend="bitpacked")
        assert _without_backend(dense.cells()) == _without_backend(packed.cells())

    def test_default_axes_reproduce_legacy_numbers(self):
        # schema 5 must not perturb a schema-4-shaped campaign's numbers:
        # the explicit default axes and their omission give equal points
        base = {k: v for k, v in SCENARIO_GRID.items()
                if k not in ("noise_models", "churns")}
        explicit = sweeps.run(
            {**base, "noise_models": ["bernoulli"], "churns": [0.0]}
        )
        omitted = sweeps.run(base)
        assert _timing_free(explicit) == _timing_free(omitted)

    def test_churned_batched_equals_per_seed_reference(self):
        # churn forces singleton replica groups (each point's dynamic
        # mask derives from its own session seed) — numbers must match
        # the per-seed points exactly.
        batched = sweeps.run(SCENARIO_GRID)
        assert _timing_free(batched) == _per_seed(SCENARIO_GRID)

    def test_noise_model_changes_numbers(self):
        cells = sweeps.run(SCENARIO_GRID).cells()
        by_model = {}
        for cell in cells:
            if cell["churn"] == 0.0:
                by_model[cell["noise_model"]] = cell["success_mean"]
        assert len(set(by_model.values())) > 1  # the axis is not cosmetic


class TestCacheIdentity:
    """Regression: the point cache must key on the full GridPoint identity."""

    BASE = {
        "topologies": ["cycle"],
        "sizes": [8],
        "noises": [0.0],
        "seeds": [0],
        "rounds": 1,
        "gamma": 1,
    }

    def test_gamma_edit_misses_cache(self, tmp_path):
        cache = tmp_path / "cache"
        sweeps.run(self.BASE, cache_dir=cache)
        replay = sweeps.run(self.BASE, cache_dir=cache)
        assert all(point["cached"] for point in replay.points)
        edited = sweeps.run({**self.BASE, "gamma": 2}, cache_dir=cache)
        assert not any(point["cached"] for point in edited.points)
        assert edited.points[0]["gamma"] == 2
        assert edited.points[0]["message_bits"] == 6

    def test_rounds_edit_misses_cache(self, tmp_path):
        cache = tmp_path / "cache"
        sweeps.run(self.BASE, cache_dir=cache)
        edited = sweeps.run({**self.BASE, "rounds": 2}, cache_dir=cache)
        assert not any(point["cached"] for point in edited.points)
        assert edited.points[0]["rounds"] == 2

    def test_family_params_edit_misses_cache(self, tmp_path):
        cache = tmp_path / "cache"
        grid = {
            "topologies": ["expander"],
            "sizes": [8],
            "noises": [0.0],
            "seeds": [0],
            "rounds": 1,
            "params": {"expander": {"degree": 3}},
        }
        sweeps.run(grid, cache_dir=cache)
        edited = sweeps.run(
            {**grid, "params": {"expander": {"degree": 7}}}, cache_dir=cache
        )
        assert not any(point["cached"] for point in edited.points)
        assert "degree=7" in edited.points[0]["params"]

    def test_noise_model_edit_misses_cache(self, tmp_path):
        cache = tmp_path / "cache"
        base = {**self.BASE, "noises": [0.05]}
        sweeps.run(base, cache_dir=cache)
        replay = sweeps.run(base, cache_dir=cache)
        assert all(point["cached"] for point in replay.points)
        edited = sweeps.run(
            {**base, "noise_models": ["adversarial"]}, cache_dir=cache
        )
        assert not any(point["cached"] for point in edited.points)
        assert edited.points[0]["noise_model"] == "adversarial"

    def test_churn_edit_misses_cache(self, tmp_path):
        cache = tmp_path / "cache"
        sweeps.run(self.BASE, cache_dir=cache)
        edited = sweeps.run({**self.BASE, "churns": [0.2]}, cache_dir=cache)
        assert not any(point["cached"] for point in edited.points)
        assert edited.points[0]["churn"] == 0.2

    def test_forged_noise_model_entry_is_rejected(self, tmp_path):
        # the slug-collision scenario for the new identity columns: a
        # bernoulli result planted under the adversarial point's cache
        # name must be detected by the stored-identity check, not replayed
        cache = tmp_path / "cache"
        base = {**self.BASE, "noises": [0.05]}
        sweeps.run(base, cache_dir=cache)
        other = {**base, "noise_models": ["adversarial"]}
        point = sweeps.load_grid(base).expand()[0]
        other_point = sweeps.load_grid(other).expand()[0]
        source = api.cache_path(
            cache, point.slug(), profile="quick", seed=0, backend="auto"
        )
        target = api.cache_path(
            cache, other_point.slug(), profile="quick", seed=0, backend="auto"
        )
        target.write_text(
            source.read_text().replace(point.slug(), other_point.slug())
        )
        forged = sweeps.run(other, cache_dir=cache)
        assert not any(point["cached"] for point in forged.points)
        assert forged.points[0]["noise_model"] == "adversarial"

    def test_forged_entry_with_matching_name_is_rejected(self, tmp_path):
        """A cache file whose *name* matches but whose stored identity does
        not (the slug-sanitisation collision scenario) must be a miss."""
        cache = tmp_path / "cache"
        sweeps.run(self.BASE, cache_dir=cache)
        other = {**self.BASE, "gamma": 2}
        point = sweeps.load_grid(self.BASE).expand()[0]
        other_point = sweeps.load_grid(other).expand()[0]
        source = api.cache_path(
            cache, point.slug(), profile="quick", seed=0, backend="auto"
        )
        target = api.cache_path(
            cache, other_point.slug(), profile="quick", seed=0, backend="auto"
        )
        # Forge: the gamma=1 result planted under the gamma=2 name, with
        # the stored experiment_id rewritten to match the file name (what
        # a sanitisation collision would produce).
        target.write_text(
            source.read_text().replace(point.slug(), other_point.slug())
        )
        forged = sweeps.run(other, cache_dir=cache)
        assert not any(point["cached"] for point in forged.points)
        assert forged.points[0]["gamma"] == 2

"""The workload axis: algorithms × zoo × seeds through the sweep engine."""

from __future__ import annotations

import pytest

from repro import sweeps
from repro.errors import ConfigurationError
from repro.sweeps import SweepResult, get_workload, workload_names
from repro.sweeps.result import POINT_FIELDS

#: The acceptance-criteria grid: matching and MIS over >= 3 zoo families
#: through the cache/parallel path, as one TOML-shaped spec.
WORKLOAD_GRID = {
    "topologies": ["expander", "torus", "gnp"],
    "workloads": ["matching", "mis"],
    "sizes": [16],
    "noises": [0.0],
    "seeds": [0, 1],
    "params": {"expander": {"degree": 3}},
}


class TestRegistry:
    def test_known_workloads(self):
        assert workload_names() == ("broadcast", "matching", "mis", "bfs", "leader")

    def test_unknown_workload_one_line_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_workload("matchingg")
        message = str(excinfo.value)
        assert "unknown workload 'matchingg'" in message
        assert "broadcast" in message and "\n" not in message

    def test_grid_validation_rejects_unknown_workload(self):
        with pytest.raises(ConfigurationError) as excinfo:
            sweeps.load_grid({**WORKLOAD_GRID, "workloads": ["nope"]})
        assert "unknown workload 'nope'" in str(excinfo.value)


class TestWorkloadSweep:
    def test_matching_and_mis_over_three_families(self, tmp_path):
        cache = tmp_path / "cache"
        result = sweeps.run(WORKLOAD_GRID, cache_dir=cache)
        assert len(result.points) == 3 * 2 * 1 * 2
        for record in result.points:
            assert tuple(record) == POINT_FIELDS
            assert record["workload"] in ("matching", "mis")
            assert record["valid"] is True
            assert record["rounds_used"] >= 1
            assert record["messages_sent"] >= 1
            assert record["output_size"] >= 1
            # decode statistics do not apply to algorithm workloads
            assert record["success_rate"] is None
            assert record["beep_rounds_per_round"] is None
        # replay: every point must come back from the cache
        replay = sweeps.run(WORKLOAD_GRID, cache_dir=cache)
        assert all(record["cached"] for record in replay.points)

    def test_json_and_csv_lossless(self):
        result = sweeps.run(WORKLOAD_GRID)
        restored = SweepResult.from_json(result.to_json())
        assert restored.points == result.points
        assert restored.cells() == result.cells()
        points_csv = result.points_csv()
        assert points_csv.splitlines()[0] == ",".join(POINT_FIELDS)
        assert len(points_csv.splitlines()) == len(result.points) + 1
        assert result.cells_csv().startswith("family,params,workload,")

    def test_cells_aggregate_workload_metrics(self):
        result = sweeps.run(WORKLOAD_GRID)
        cells = result.cells()
        assert len(cells) == 6  # 3 families x 2 workloads
        for cell in cells:
            assert cell["seeds"] == 2
            assert cell["valid_mean"] == 1.0
            assert cell["rounds_used_mean"] >= 1
            assert cell["success_mean"] is None

    def test_parallel_matches_serial(self):
        serial = sweeps.run(WORKLOAD_GRID)
        parallel = sweeps.run(WORKLOAD_GRID, jobs=3)
        assert serial.cells() == parallel.cells()

    def test_workload_edit_misses_cache(self, tmp_path):
        cache = tmp_path / "cache"
        base = {**WORKLOAD_GRID, "workloads": ["matching"]}
        sweeps.run(base, cache_dir=cache)
        edited = sweeps.run(
            {**base, "workloads": ["mis"]}, cache_dir=cache
        )
        assert not any(record["cached"] for record in edited.points)

    def test_mixed_broadcast_and_algorithm_grid(self):
        result = sweeps.run(
            {
                "topologies": ["torus"],
                "workloads": ["broadcast", "leader", "bfs"],
                "sizes": [9],
                "noises": [0.0],
                "seeds": [0],
                "rounds": 1,
            }
        )
        by_workload = {record["workload"]: record for record in result.points}
        assert by_workload["broadcast"]["success_rate"] is not None
        assert by_workload["broadcast"]["valid"] is None
        assert by_workload["leader"]["valid"] is True
        assert by_workload["bfs"]["output_size"] == 9

    def test_example_workload_grid_loads(self):
        spec = sweeps.load_grid("examples/workload_grid.toml")
        assert spec.workloads == ("matching", "mis")
        assert len(spec.topologies) == 3

    def test_cli_list_workloads(self, capsys):
        from repro.experiments.harness import main

        assert main(["sweep", "--list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in workload_names():
            assert name in out

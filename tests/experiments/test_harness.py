"""Tests for the command-line experiment harness."""

from __future__ import annotations

import json

import pytest

from repro.experiments import all_specs
from repro.experiments.harness import _experiment_id_summary, main
from repro.sweeps.result import SWEEP_SCHEMA_VERSION

GRID_TOML = (
    "[grid]\n"
    'topologies = ["cycle", "path"]\n'
    "sizes = [8]\n"
    "noises = [0.0]\n"
    "rounds = 1\n"
)


class TestHelpText:
    def test_id_summary_generated_from_registry(self):
        summary = _experiment_id_summary()
        assert summary == "a01..a03, e01..e17"

    def test_summary_tracks_registry_contents(self):
        # every registered id is inside one of the advertised ranges
        summary = _experiment_id_summary()
        for spec in all_specs():
            prefix = spec.id.rstrip("0123456789")
            assert prefix in summary

    def test_usage_advertises_all_registered_ids(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "e01..e17" in out and "a01..a03" in out
        assert "e01..e15" not in out  # the stale hardcoded range


#: Flags of retired settings, each with a value the old CLI accepted.
RETIRED_FLAGS = (
    ["--runtime", "reference"],
    ["--shards", "2"],
    ["--backend", "dense"],
    ["--full"],
)


class TestRuntimeFlag:
    """Usage errors exit 2: the retired ``--runtime``, ``--shards``,
    ``--backend`` and ``--full`` flags, unknown axes."""

    def test_runtime_flag_is_retired(self, capsys):
        for flag in RETIRED_FLAGS:
            with pytest.raises(SystemExit) as excinfo:
                main(["e11", *flag])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_sweep_runtime_flag_is_retired(self, tmp_path, capsys):
        grid = tmp_path / "grid.toml"
        grid.write_text(GRID_TOML)
        for flag in RETIRED_FLAGS:
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "--grid", str(grid), *flag])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_sweep_unknown_noise_model_exits_2_one_line(self, tmp_path, capsys):
        grid = tmp_path / "grid.toml"
        grid.write_text(GRID_TOML + 'noise_models = ["bogus"]\n')
        assert main(["sweep", "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic, no traceback
        assert "unknown noise model 'bogus'" in err
        assert "bernoulli" in err and "adversarial" in err and "zone:" in err


class TestHarnessCLI:
    def test_no_args_lists_experiments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "e16" in out and "a03" in out

    def test_run_single_experiment(self, capsys):
        assert main(["e01"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "[e01 completed" in out

    def test_run_multiple(self, capsys):
        assert main(["e01", "e15"]) == 0
        out = capsys.readouterr().out
        assert "[e01 completed" in out and "[e15 completed" in out

    def test_seed_flag(self, capsys):
        assert main(["e01", "--seed", "3"]) == 0

    def test_unknown_experiment_exits_2_with_message(self, capsys):
        assert main(["e99"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic, no traceback
        assert "unknown experiment 'e99'" in err
        assert "e01" in err and "a03" in err  # lists the known ids


class TestFormats:
    def test_json_format_has_metadata(self, capsys):
        assert main(["e01", "--format", "json", "--seed", "5"]) == 0
        [doc] = json.loads(capsys.readouterr().out)
        assert doc["experiment_id"] == "e01"
        assert doc["seed"] == 5
        assert doc["profile"] == "quick"
        assert "backend" not in doc
        assert doc["elapsed"] >= 0
        assert doc["tables"] and doc["tables"][0]["rows"]

    def test_json_multiple_experiments(self, capsys):
        assert main(["e01", "e03", "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [doc["experiment_id"] for doc in docs] == ["e01", "e03"]

    def test_csv_format(self, capsys):
        assert main(["e03", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# table: e03 /")
        assert "a,delta,c_delta" in out

    def test_text_format_matches_direct_render(self, capsys):
        from repro.experiments import RunContext, api, get_spec

        assert main(["e03", "--seed", "2"]) == 0
        cli_out = capsys.readouterr().out
        [result] = api.run(["e03"], seed=2)
        tables = get_spec("e03").func(RunContext("e03", seed=2))
        # the table bodies must agree byte-for-byte across all three paths:
        # direct spec execution, structured result, and CLI text output
        for table, stored in zip(tables, result.tables):
            assert table.render() == stored.render()
            assert table.render() in cli_out

    def test_output_dir_writes_files(self, tmp_path, capsys):
        assert main(
            ["e01", "e03", "--format", "json", "--output", str(tmp_path)]
        ) == 0
        for experiment_id in ("e01", "e03"):
            path = tmp_path / f"{experiment_id}.json"
            assert path.is_file()
            doc = json.loads(path.read_text())
            assert doc["experiment_id"] == experiment_id

    def test_output_dir_text(self, tmp_path, capsys):
        assert main(["e01", "--output", str(tmp_path)]) == 0
        assert "[e01 completed" in (tmp_path / "e01.txt").read_text()


class TestSelection:
    def test_tags_select_without_ids(self, capsys):
        assert main(["--tags", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "[a01 completed" in out and "[a02 completed" in out
        assert "[e01 completed" not in out

    def test_tags_restrict_ids(self, capsys):
        assert main(["e01", "e02", "--tags", "figure"]) == 0
        out = capsys.readouterr().out
        assert "[e01 completed" in out and "[e02 completed" not in out

    def test_no_match_exits_2(self, capsys):
        assert main(["--tags", "no-such-tag"]) == 2

    def test_jobs_flag_parallel_json(self, capsys):
        assert main(["e01", "e03", "--format", "json", "--jobs", "2"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [doc["experiment_id"] for doc in docs] == ["e01", "e03"]

    def test_cache_flag_round_trips(self, tmp_path, capsys):
        assert main(["e03", "--cache", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "e03--quick--seed0.json").exists()
        assert main(["e03", "--cache", str(tmp_path)]) == 0
        second = capsys.readouterr().out
        assert first == second  # replayed result renders identically

    def test_cache_path_is_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["e03", "--cache", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert "cannot write cache entry" in err
        assert "Traceback" not in err

    def test_output_dir_unwritable_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(
            ["e03", "--format", "json", "--output", str(blocker / "sub")]
        ) == 2
        err = capsys.readouterr().err
        assert "cannot write output file" in err
        assert "Traceback" not in err

    def test_profile_label_recorded(self, capsys):
        assert main(["e01", "--profile", "smoke", "--format", "json"]) == 0
        [doc] = json.loads(capsys.readouterr().out)
        assert doc["profile"] == "smoke"


class TestSweepSubcommand:
    def write_grid(self, tmp_path, content=GRID_TOML):
        path = tmp_path / "grid.toml"
        path.write_text(content)
        return str(path)

    def test_text_output(self, tmp_path, capsys):
        assert main(["sweep", "--grid", self.write_grid(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Sweep aggregate" in out
        assert "[sweep completed: 2 points" in out

    def test_json_output(self, tmp_path, capsys):
        assert main(
            ["sweep", "--grid", self.write_grid(tmp_path), "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == SWEEP_SCHEMA_VERSION
        assert len(doc["points"]) == 2
        assert doc["points"][0]["family"] == "cycle"
        assert doc["cells"]

    def test_csv_output(self, tmp_path, capsys):
        assert main(
            ["sweep", "--grid", self.write_grid(tmp_path), "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("# table: sweep / points")
        assert "# table: sweep / cells" in out

    def test_output_dir_writes_artifacts(self, tmp_path, capsys):
        grid = self.write_grid(tmp_path)
        out_dir = tmp_path / "artifacts"
        assert main(["sweep", "--grid", grid, "--output", str(out_dir)]) == 0
        assert (out_dir / "sweep.json").is_file()
        assert (out_dir / "sweep_points.csv").is_file()
        assert (out_dir / "sweep_cells.csv").is_file()
        json.loads((out_dir / "sweep.json").read_text())

    def test_cache_round_trips(self, tmp_path, capsys):
        grid = self.write_grid(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["sweep", "--grid", grid, "--cache", cache]) == 0
        first = capsys.readouterr()
        assert main(["sweep", "--grid", grid, "--cache", cache]) == 0
        second = capsys.readouterr()
        # replayed cells render identically (the footer's cached count
        # and timing legitimately differ)
        table = lambda text: text.split("\n\n[sweep completed")[0]
        assert table(first.out) == table(second.out)
        assert "(2 cached)" in second.out
        assert "cache hit" in second.err

    def test_unknown_family_exits_2_one_line(self, tmp_path, capsys):
        grid = self.write_grid(
            tmp_path,
            '[grid]\ntopologies = ["moebius"]\nsizes = [8]\nnoises = [0.0]\n',
        )
        assert main(["sweep", "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic, no traceback
        assert "unknown topology family 'moebius'" in err
        assert "expander" in err and "torus" in err

    def test_malformed_grid_key_exits_2_one_line(self, tmp_path, capsys):
        grid = self.write_grid(
            tmp_path,
            '[grid]\ntopologies = ["cycle"]\nsizes = [8]\nnoises = [0.0]\n'
            "sizs = [1]\n",
        )
        assert main(["sweep", "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'sizs'" in err and "sizes" in err

    def test_missing_grid_file_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--grid", str(tmp_path / "nope.toml")]) == 2
        assert "cannot read grid file" in capsys.readouterr().err

    def test_invalid_toml_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("not [valid toml")
        assert main(["sweep", "--grid", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid TOML")
        assert "Traceback" not in err

    def test_non_utf8_grid_exits_2(self, tmp_path, capsys):
        binary = tmp_path / "binary.toml"
        binary.write_bytes(b"\xff\xfe\x00grid")
        assert main(["sweep", "--grid", str(binary)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err
        assert "Traceback" not in err

    def test_cache_path_is_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(
            ["sweep", "--grid", self.write_grid(tmp_path), "--cache", str(blocker)]
        ) == 2
        err = capsys.readouterr().err
        assert "cannot write cache entry" in err
        assert "Traceback" not in err

    def test_output_dir_unwritable_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(
            [
                "sweep",
                "--grid",
                self.write_grid(tmp_path),
                "--output",
                str(blocker / "sub"),
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "cannot write output file" in err
        assert "Traceback" not in err

    def test_no_batch_flag_is_retired(self, tmp_path, capsys):
        grid = self.write_grid(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--grid", grid, "--no-batch"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-batch" in capsys.readouterr().err

    def test_list_families(self, capsys):
        assert main(["sweep", "--list-families"]) == 0
        out = capsys.readouterr().out
        for name in ("expander", "hypercube", "torus", "powerlaw"):
            assert name in out

    def test_grid_flag_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep"])
        assert excinfo.value.code == 2

    def test_example_grid_file_is_valid(self):
        # the README/CI grid must always stay loadable
        from pathlib import Path

        from repro.sweeps import load_grid

        repo_root = Path(__file__).resolve().parents[2]
        grid = load_grid(repo_root / "examples" / "sweep_grid.toml")
        assert len(grid.topologies) >= 3
        assert len(grid.sizes) >= 2 and len(grid.noises) >= 2


class TestServeCLI:
    def test_bad_pool_size_exits_2_one_line(self, tmp_path, capsys):
        code = main(
            ["serve", "--store-dir", str(tmp_path / "store"), "--jobs", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "jobs must be >= 1" in err
        assert err.count("\n") == 1

    def test_unusable_store_dir_exits_2_one_line(self, tmp_path, capsys):
        blocker = tmp_path / "flat-file"
        blocker.write_text("in the way")
        code = main(["serve", "--store-dir", str(blocker)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot initialise job store")
        assert err.count("\n") == 1

    def test_store_dir_is_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2

    def test_serve_boots_and_answers_health(self, tmp_path, capsys):
        import json as json_module
        import threading
        import urllib.request

        from repro.service import ServiceConfig, create_server

        service = create_server(
            ServiceConfig(
                host="127.0.0.1",
                port=0,
                store_dir=tmp_path / "store",
                jobs=1,
                inline=True,
            )
        )
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(f"{service.url}/v1/health") as response:
                health = json_module.loads(response.read())
            assert health["status"] == "ok"
        finally:
            service.shutdown()
            thread.join(timeout=10)

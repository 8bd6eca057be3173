"""Tests for the programmatic runner API (`repro.experiments.api`)."""

from __future__ import annotations

import pytest

from repro import sweeps
from repro.errors import ConfigurationError
from repro.experiments import ExperimentResult, RunContext, all_specs, api, get_spec

ALL_IDS = [spec.id for spec in all_specs()]


class TestResolveIds:
    def test_none_is_all(self):
        assert api.resolve_ids(None) == ALL_IDS

    def test_all_keyword(self):
        assert api.resolve_ids(["all"]) == ALL_IDS

    def test_case_insensitive_and_deduplicated(self):
        assert api.resolve_ids(["E06", "e06", "e01"]) == ["e06", "e01"]

    def test_unknown_id_raises(self):
        with pytest.raises(ConfigurationError):
            api.resolve_ids(["e99"])

    def test_explicit_empty_selection_is_empty(self):
        # a dynamically-built selection that matched nothing must not
        # silently expand to a full run
        assert api.resolve_ids([]) == []
        assert api.run([]) == []

    def test_tags_filter(self):
        selected = api.resolve_ids(None, tags=["ablation"])
        assert selected == ["a01", "a02", "a03"]

    def test_tags_restrict_explicit_ids(self):
        assert api.resolve_ids(["e01", "e02"], tags=["figure"]) == ["e01"]


class TestRunOne:
    def test_metadata_populated(self):
        result = api.run_one("e01", profile="quick", seed=3)
        assert result.experiment_id == "e01"
        assert result.title == get_spec("e01").title
        assert result.profile == "quick"
        assert result.seed == 3
        assert result.elapsed > 0
        assert result.tables and result.tables[0].rows

    def test_rows_match_legacy_runner(self):
        result = api.run_one("e03", seed=1)
        tables = get_spec("e03").func(RunContext("e03", seed=1))
        assert [t.rows for t in result.tables] == [t.rows for t in tables]

    def test_full_profile_reaches_context(self):
        # full e03 sweeps more (a, delta) combos than quick
        quick_rows = len(api.run_one("e03").tables[0].rows)
        full_rows = len(api.run_one("e03", profile="full").tables[0].rows)
        assert full_rows > quick_rows

    def test_runner_context_carries_the_run_settings(self):
        from repro.experiments import spec as spec_module
        from repro.experiments.spec import experiment

        seen: list[RunContext] = []

        @experiment(id="x98", title="context probe", tags=("test",))
        def probe(ctx):
            seen.append(ctx)
            ctx.report("hello")
            return []

        messages: list[str] = []
        try:
            api.run_one("x98", profile="full", seed=5, progress=messages.append)
        finally:
            del spec_module._REGISTRY["x98"]
        [ctx] = seen
        assert (ctx.experiment_id, ctx.profile, ctx.seed) == ("x98", "full", 5)
        assert messages == ["x98: hello"]


class TestRunMany:
    def test_order_follows_selection(self):
        results = api.run(["e03", "e01"])
        assert [r.experiment_id for r in results] == ["e03", "e01"]

    def test_parallel_matches_serial(self):
        serial = api.run(["e01", "e03", "e14"], seed=4, jobs=1)
        parallel = api.run(["e01", "e03", "e14"], seed=4, jobs=3)
        for a, b in zip(serial, parallel):
            assert a.experiment_id == b.experiment_id
            assert [t.rows for t in a.tables] == [t.rows for t in b.tables]
            assert [t.render() for t in a.tables] == [t.render() for t in b.tables]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            api.run(["e01"], jobs=0)

    def test_progress_callback_invoked(self):
        messages: list[str] = []
        api.run(["e01"], progress=messages.append)
        assert any("e01" in message for message in messages)


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        [first] = api.run(["e03"], seed=2, cache_dir=tmp_path)
        assert not first.cached
        assert [path.name for path in tmp_path.iterdir()] == [
            "e03--quick--seed2.json"
        ]
        [second] = api.run(["e03"], seed=2, cache_dir=tmp_path)
        assert second.cached
        assert [t.rows for t in second.tables] == [t.rows for t in first.tables]
        assert second.elapsed == first.elapsed  # replayed, not re-timed

    def test_key_includes_profile_and_seed(self, tmp_path):
        api.run(["e01"], seed=0, cache_dir=tmp_path)
        api.run(["e01"], seed=1, cache_dir=tmp_path)
        api.run(["e01"], seed=0, profile="smoke", cache_dir=tmp_path)
        assert len(list(tmp_path.glob("e01--*.json"))) == 3

    def test_cache_file_is_valid_result_json(self, tmp_path):
        api.run(["e01"], cache_dir=tmp_path)
        [path] = tmp_path.glob("e01--*.json")
        restored = ExperimentResult.from_json(path.read_text())
        assert restored.experiment_id == "e01"

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        api.run(["e01"], cache_dir=tmp_path)
        [path] = tmp_path.glob("e01--*.json")
        path.write_text("{not json")  # e.g. an interrupted write
        [result] = api.run(["e01"], cache_dir=tmp_path)
        assert not result.cached  # re-ran instead of crashing
        # and the entry was repaired
        assert ExperimentResult.from_json(path.read_text()).experiment_id == "e01"

    def test_old_schema_cache_entry_is_a_miss(self, tmp_path):
        api.run(["e01"], cache_dir=tmp_path)
        [path] = tmp_path.glob("e01--*.json")
        path.write_text(path.read_text().replace('"schema_version": 2', '"schema_version": 1'))
        [result] = api.run(["e01"], cache_dir=tmp_path)
        assert not result.cached

    def test_sanitization_collision_is_a_miss(self, tmp_path):
        # 'a b' and 'a-b' sanitize to the same file name; the stored
        # metadata must prevent replaying the wrong profile's result
        [first] = api.run(["e01"], profile="a b", cache_dir=tmp_path)
        path_ab = api.cache_path(tmp_path, "e01", profile="a b", seed=0)
        path_dash = api.cache_path(tmp_path, "e01", profile="a-b", seed=0)
        assert path_ab == path_dash
        [second] = api.run(["e01"], profile="a-b", cache_dir=tmp_path)
        assert not second.cached
        assert second.profile == "a-b"


    def test_write_deletes_legacy_backend_names(self, tmp_path):
        # Names carried a backend label (and a shard suffix) before the
        # schedule kernel became a size rule; a write deletes the same
        # key's old entries, for experiments and sweep points alike.
        grid = {
            "topologies": ["cycle"],
            "sizes": [8],
            "noises": [0.0],
            "seeds": [0],
            "rounds": 1,
        }
        sweeps.run(grid, cache_dir=tmp_path)
        [point_entry] = tmp_path.iterdir()
        point_entry.unlink()
        kept = [point_entry.name, "e01--quick--seed0.json"]
        other_key = "e01--quick--seed1--auto.json"
        for stem in (point_entry.stem, "e01--quick--seed0"):
            for label in ("auto", "dense", "bitpacked", "auto-shards4"):
                (tmp_path / f"{stem}--{label}.json").write_text("{}")
        (tmp_path / other_key).write_text("{}")
        api.run(["e01"], cache_dir=tmp_path)
        [point] = sweeps.run(grid, cache_dir=tmp_path).points
        assert not point["cached"]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [*kept, other_key]
        )


class TestOnResult:
    def test_streamed_in_selection_order(self):
        seen: list[str] = []
        api.run(["e03", "e01"], on_result=lambda r: seen.append(r.experiment_id))
        assert seen == ["e03", "e01"]

    def test_streamed_in_order_with_cache_hits_interleaved(self, tmp_path):
        api.run(["e03"], cache_dir=tmp_path)  # warm only the middle entry
        seen: list[tuple[str, bool]] = []
        api.run(
            ["e01", "e03", "e14"],
            cache_dir=tmp_path,
            on_result=lambda r: seen.append((r.experiment_id, r.cached)),
        )
        assert seen == [("e01", False), ("e03", True), ("e14", False)]

    def test_streamed_in_order_parallel(self):
        seen: list[str] = []
        api.run(
            ["e03", "e01", "e14"],
            jobs=3,
            on_result=lambda r: seen.append(r.experiment_id),
        )
        assert seen == ["e03", "e01", "e14"]


class TestCacheHardening:
    """`load_cached` repairs bad entries instead of wedging callers."""

    def _entry(self, tmp_path):
        api.run(["e01"], cache_dir=tmp_path)
        [path] = tmp_path.glob("e01--*.json")
        return path

    def _load(self, path):
        return api.load_cached(path, experiment_id="e01", profile="quick", seed=0)

    def test_corrupt_entry_is_deleted(self, tmp_path):
        path = self._entry(tmp_path)
        path.write_text("{not json")
        assert self._load(path) is None
        assert not path.exists()  # repaired: the next writer starts clean

    def test_truncated_entry_is_deleted(self, tmp_path):
        path = self._entry(tmp_path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        assert self._load(path) is None
        assert not path.exists()

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        assert self._load(tmp_path / "absent.json") is None

    def test_metadata_mismatch_keeps_the_file(self, tmp_path):
        # A collision victim is another request's valid entry, not junk.
        path = self._entry(tmp_path)
        miss = api.load_cached(
            path, experiment_id="e01", profile="other-profile", seed=0
        )
        assert miss is None
        assert path.exists()


class TestProgressAcrossProcesses:
    """The progress callback survives the worker process boundary."""

    def test_worker_messages_reach_the_callback(self):
        messages: list[str] = []
        api.run(["e01", "e03"], jobs=2, progress=messages.append)
        # In-experiment reports from inside the spawn workers are relayed,
        # not silently dropped (e01 reports mid-run via ctx.report).
        assert any("combined-code layout assembled" in m for m in messages)
        assert any(m.startswith("e01: done") for m in messages)
        assert any(m.startswith("e03: done") for m in messages)

    def test_context_pickles_without_callback(self):
        import pickle

        ctx = RunContext(
            experiment_id="e01", profile="quick", seed=0,
            progress=lambda message: None,
        )
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.progress is None
        assert clone.experiment_id == "e01"

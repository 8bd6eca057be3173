"""Tests for job-spec normalization, identity keys, and execution."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import api
from repro.service import JobSpec
from repro.service.jobs import execute_spec, render_csv


def normalize(**payload):
    """Shorthand: normalize one raw submission body."""
    return JobSpec.normalize(payload)


class TestNormalizeExperiment:
    def test_defaults_made_explicit(self):
        spec = normalize(kind="experiment", ids=["e01"])
        assert spec.kind == "experiment"
        assert spec.payload == {
            "ids": ["e01"],
            "profile": "quick",
            "seed": 0,
            "backend": None,
            "shards": 1,
        }

    def test_ids_resolved_through_registry(self):
        spec = normalize(kind="experiment", ids=["E03", "e03", "e01"])
        assert spec.payload["ids"] == ["e03", "e01"]  # case-folded, deduped

    def test_tags_select_experiments(self):
        tagged = normalize(kind="experiment", tags=["codes"])
        assert tagged.payload["ids"] == api.resolve_ids(None, tags=["codes"])

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            normalize(kind="experiment", ids=["zz99"])

    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigurationError, match="selects no experiments"):
            normalize(kind="experiment", ids=[])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="job kind"):
            normalize(kind="banana")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            JobSpec.normalize(["not", "a", "dict"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment-job"):
            normalize(kind="experiment", ids=["e01"], speed="ludicrous")

    @pytest.mark.parametrize(
        "field,value",
        [("seed", -1), ("seed", "7"), ("shards", 0), ("shards", True)],
    )
    def test_bad_integers_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            normalize(kind="experiment", ids=["e01"], **{field: value})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            normalize(kind="experiment", ids=["e01"], backend="quantum")

    def test_retired_runtime_key_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            normalize(kind="experiment", ids=["e01"], runtime="reference")
        assert str(excinfo.value) == (
            "unknown experiment-job key(s) 'runtime'; "
            "known: ids, tags, profile, seed, backend, shards"
        )
        with pytest.raises(ConfigurationError) as excinfo:
            normalize(kind="sweep", grid=GRID, runtime="reference")
        assert str(excinfo.value) == (
            "unknown sweep-job key(s) 'runtime'; "
            "known: grid, profile, backend, shards"
        )

    def test_empty_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="profile"):
            normalize(kind="experiment", ids=["e01"], profile="")


GRID = {
    "topologies": ["expander"],
    "sizes": [16],
    "noises": [0.0],
    "seeds": [0],
    "rounds": 2,
    "params": {"expander": {"degree": 3}},
}


class TestNormalizeSweep:
    def test_grid_expanded_to_document_form(self):
        spec = normalize(kind="sweep", grid=GRID)
        assert spec.kind == "sweep"
        assert spec.payload["grid"]["grid"]["topologies"] == ["expander"]
        assert spec.payload["profile"] == "quick"

    def test_backend_override_folds_into_axis(self):
        spec = normalize(kind="sweep", grid=GRID, backend="auto")
        assert spec.payload["grid"]["grid"]["backends"] == ["auto"]
        assert "backend" not in spec.payload  # folded, not carried

    def test_missing_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="'grid' table"):
            normalize(kind="sweep")

    def test_bad_grid_key_rejected(self):
        bad = dict(GRID)
        bad["flavors"] = ["sour"]
        with pytest.raises(ConfigurationError, match="unknown grid key"):
            normalize(kind="sweep", grid=bad)


class TestIdentity:
    def test_identical_payloads_share_a_key(self):
        a = normalize(kind="experiment", ids=["e01"], seed=3)
        b = normalize(kind="experiment", ids=["e01"], seed=3)
        assert a.identity_key() == b.identity_key()

    @pytest.mark.parametrize(
        "submission,runtime,key",
        [
            (
                {"kind": "experiment", "ids": ["e14"]},
                None,
                "db6d490f9490b64a3ff7eeab763e3dc2d9eda0269c7520f2d5d691b4360fe533",
            ),
            (
                {
                    "kind": "sweep",
                    "grid": {
                        "topologies": ["cycle"],
                        "sizes": [8],
                        "noises": [0.0],
                        "seeds": [0],
                        "rounds": 1,
                    },
                },
                "reference",
                "6bc0ec23688e1e96fc459437fbfb6f9ebf6e7d87f06b1f834f195c78e7170dcc",
            ),
        ],
        ids=["experiment", "sweep"],
    )
    def test_stored_specs_with_runtime_keep_key_and_run(
        self, submission, runtime, key, tmp_path
    ):
        # spec.json as stored before the runtime key was retired; the keys
        # were computed then, so no payload edit can split the dedupe index.
        fresh = JobSpec.normalize(submission)
        document = fresh.to_dict()
        document["payload"]["runtime"] = runtime
        stored = JobSpec.from_dict(document)
        assert stored.identity_key() == fresh.identity_key() == key
        cache = str(tmp_path)
        execute_spec(stored, cache_dir=cache)  # runs, filling the cache
        assert execute_spec(stored, cache_dir=cache) == execute_spec(
            fresh, cache_dir=cache
        )

    @pytest.mark.parametrize(
        "variant",
        [
            {"seed": 1},
            {"profile": "full"},
            {"shards": 2},
            {"ids": ["e03"]},
        ],
    )
    def test_result_shaping_fields_change_the_key(self, variant):
        base = normalize(kind="experiment", ids=["e01"])
        other = normalize(kind="experiment", **{"ids": ["e01"], **variant})
        assert base.identity_key() != other.identity_key()

    def test_sweep_key_stable_and_seed_sensitive(self):
        a = normalize(kind="sweep", grid=GRID)
        b = normalize(kind="sweep", grid=json.loads(json.dumps(GRID)))
        assert a.identity_key() == b.identity_key()
        shifted = dict(GRID, seeds=[1])
        assert (
            normalize(kind="sweep", grid=shifted).identity_key()
            != a.identity_key()
        )

    def test_round_trips_through_the_store_form(self):
        spec = normalize(kind="experiment", ids=["e01"], seed=5)
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.identity_key() == spec.identity_key()


class TestExecute:
    def test_experiment_document_matches_api_serialization(self, tmp_path):
        spec = normalize(kind="experiment", ids=["e01"], seed=4)
        document = execute_spec(spec, cache_dir=str(tmp_path))
        # Replaying through the same cache reproduces the bytes exactly
        # (elapsed replays from the cache entry, so nothing re-times).
        results = api.run(["e01"], seed=4, cache_dir=tmp_path)
        expected = json.dumps([r.to_dict() for r in results], indent=2)
        assert document == expected

    def test_experiment_csv_matches_result_csv(self, tmp_path):
        spec = normalize(kind="experiment", ids=["e01", "e03"])
        document = execute_spec(spec, cache_dir=str(tmp_path))
        results = api.run(["e01", "e03"], cache_dir=tmp_path)
        assert render_csv("experiment", document) == "".join(
            r.to_csv() for r in results
        )

    def test_progress_reaches_the_callback(self, tmp_path):
        messages: list[str] = []
        spec = normalize(kind="experiment", ids=["e01"])
        execute_spec(spec, cache_dir=str(tmp_path), progress=messages.append)
        assert any("combined-code layout assembled" in m for m in messages)

    def test_sweep_document_and_csv(self, tmp_path):
        from repro import sweeps

        spec = normalize(kind="sweep", grid=GRID)
        sweeps.run(GRID, cache_dir=tmp_path)  # warm the point cache
        document = execute_spec(spec, cache_dir=str(tmp_path))
        warm = sweeps.run(GRID, cache_dir=tmp_path)  # all points replayed
        assert document == warm.to_json()
        csv = render_csv("sweep", document)
        assert csv.startswith("# table: sweep / points\n")
        assert "# table: sweep / cells\n" in csv

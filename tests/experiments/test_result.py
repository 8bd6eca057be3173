"""Serialization tests for the structured result layer.

The satellite contract: ``ExperimentResult -> JSON -> ExperimentResult``
preserves rows, notes, and metadata for **every** registered experiment
spec — schema-level (results are fabricated per spec, no slow runs).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentResult, Table, all_specs
from repro.experiments.result import SCHEMA_VERSION


def _synthetic_result(spec) -> ExperimentResult:
    """A schema-exercising result for ``spec`` without running it.

    Rows cover every cell type experiments emit: ints, floats (plain and
    scientific-notation magnitudes), bools, and strings.
    """
    table = Table(
        title=f"{spec.id}: synthetic",
        headers=["n", "ratio", "tiny", "ok", "label"],
        rows=[
            [16, 1.5, 2.5e-7, True, "G(n, 4/n)"],
            [1024, 0.3333333333333333, 1e6, False, "-"],
        ],
        notes=["synthetic round-trip row set"],
    )
    return ExperimentResult(
        experiment_id=spec.id,
        title=spec.title,
        claim=spec.claim,
        tags=spec.tags,
        profile="quick",
        seed=7,
        elapsed=0.125,
        tables=[table],
    )


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.id)
def test_json_round_trip_every_spec(spec):
    result = _synthetic_result(spec)
    restored = ExperimentResult.from_json(result.to_json())
    assert restored.experiment_id == result.experiment_id
    assert restored.title == result.title
    assert restored.claim == result.claim
    assert restored.tags == result.tags
    assert restored.profile == result.profile
    assert restored.seed == result.seed
    assert restored.elapsed == result.elapsed
    for before, after in zip(result.tables, restored.tables):
        assert after.title == before.title
        assert after.headers == before.headers
        assert after.rows == before.rows  # exact values, float-exact
        assert after.notes == before.notes
    # rendered text is therefore identical too
    assert restored.render_text() == result.render_text()


class TestTableCells:
    def test_numpy_scalars_coerced(self):
        table = Table(
            title="T",
            headers=["i", "f", "b"],
            rows=[[np.int64(3), np.float64(0.25), np.bool_(True)]],
        )
        [row] = table.rows
        assert row == (3, 0.25, True)
        assert [type(value) for value in row] == [int, float, bool]
        json.dumps(table.to_dict())  # JSON-able without a custom encoder

    def test_numpy_cells_render_alike_directly_and_after_json(self):
        # np.True_ is not a bool: stored as given, it would render "True"
        # here and "yes" after the JSON round trip
        table = Table(title="T", headers=["ok", "count"])
        table.add_row(np.True_, np.int64(3))
        result = ExperimentResult(
            experiment_id="eXX", title="t", profile="quick", seed=0,
            elapsed=0.0, tables=[table],
        )
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.render_text() == result.render_text()
        assert restored.render_text().startswith("\n" + table.render())
        assert table.render().splitlines()[-1].startswith("yes")

    def test_records(self):
        table = Table(title="T", headers=["x", "y"], rows=[[1, 2], [3, 4]])
        assert list(table.records()) == [{"x": 1, "y": 2}, {"x": 3, "y": 4}]

    def test_csv_quotes_commas(self):
        table = Table(title="T", headers=["k", "v"], rows=[["a,b", 1]])
        assert table.to_csv() == 'k,v\n"a,b",1\n'

    def test_dict_round_trip(self):
        table = Table(title="T", headers=["a", "b"], rows=[[1, "x"]], notes=["n"])
        assert Table.from_dict(json.loads(json.dumps(table.to_dict()))) == table

    def test_row_arity_checked(self):
        with pytest.raises(ConfigurationError):
            Table(title="T", headers=["a", "b"], rows=[[1]])

    def test_duplicate_headers_rejected_when_built(self):
        with pytest.raises(ConfigurationError, match="duplicate headers"):
            Table(title="T", headers=["a", "a"])


class TestExperimentResult:
    def test_records_tagged_with_table(self):
        result = ExperimentResult(
            experiment_id="eXX",
            title="t",
            profile="quick",
            seed=0,
            elapsed=0.0,
            tables=[
                Table(title="first", headers=["a"], rows=[[1]]),
                Table(title="second", headers=["a"], rows=[[2]]),
            ],
        )
        assert list(result.records()) == [
            {"table": "first", "a": 1},
            {"table": "second", "a": 2},
        ]

    def test_render_text_matches_v1_block(self):
        table = Table(title="T", headers=["a"])
        table.add_row(1)
        result = ExperimentResult(
            experiment_id="e01",
            title="t",
            profile="quick",
            seed=0,
            elapsed=1.26,
            tables=[table],
        )
        text = result.render_text()
        assert text.startswith("\n" + table.render())
        assert text.endswith("\n[e01 completed in 1.3s]")

    def test_schema_version_checked(self):
        payload = {"schema_version": SCHEMA_VERSION + 1}
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_dict(payload)

    def test_cached_flag_not_serialized(self):
        result = ExperimentResult(
            experiment_id="eXX",
            title="t",
            profile="quick",
            seed=0,
            elapsed=0.0,
            tables=[],
            cached=True,
        )
        assert ExperimentResult.from_json(result.to_json()).cached is False

    def test_stored_backend_label_is_ignored(self):
        # Documents written while the kernel was a user choice carry a
        # backend label; they still load, and the label is dropped.
        table = Table(title="T", headers=["a"], rows=[[1]])
        result = ExperimentResult(
            experiment_id="eXX", title="t", profile="quick", seed=0,
            elapsed=0.0, tables=[table],
        )
        stored = {**result.to_dict(), "backend": "dense"}
        assert ExperimentResult.from_dict(stored).to_dict() == result.to_dict()

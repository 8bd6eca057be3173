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
from repro.experiments import ExperimentResult, Table, TableData, all_specs
from repro.experiments.result import SCHEMA_VERSION


def _synthetic_result(spec) -> ExperimentResult:
    """A schema-exercising result for ``spec`` without running it.

    Rows cover every cell type experiments emit: ints, floats (plain and
    scientific-notation magnitudes), bools, and strings.
    """
    table = TableData(
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


class TestTableData:
    def test_from_table_round_trip(self):
        table = Table(title="T", headers=["a", "b"], notes=["n1"])
        table.add_row(1, 0.5)
        table.add_row(2, 1e-9)
        data = TableData.from_table(table)
        rebuilt = data.to_table()
        assert rebuilt.render() == table.render()

    def test_numpy_scalars_coerced(self):
        data = TableData(
            title="T",
            headers=["i", "f", "b"],
            rows=[[np.int64(3), np.float64(0.25), np.bool_(True)]],
        )
        [row] = data.rows
        assert row == [3, 0.25, True]
        assert [type(value) for value in row] == [int, float, bool]
        json.dumps(data.to_dict())  # JSON-able without a custom encoder

    def test_records(self):
        data = TableData(title="T", headers=["x", "y"], rows=[[1, 2], [3, 4]])
        assert list(data.records()) == [{"x": 1, "y": 2}, {"x": 3, "y": 4}]

    def test_csv_quotes_commas(self):
        data = TableData(title="T", headers=["k", "v"], rows=[["a,b", 1]])
        assert data.to_csv() == 'k,v\n"a,b",1\n'

    def test_row_arity_checked(self):
        with pytest.raises(ConfigurationError):
            TableData(title="T", headers=["a", "b"], rows=[[1]])


class TestExperimentResult:
    def test_records_tagged_with_table(self):
        result = ExperimentResult(
            experiment_id="eXX",
            title="t",
            profile="quick",
            seed=0,
            elapsed=0.0,
            tables=[
                TableData(title="first", headers=["a"], rows=[[1]]),
                TableData(title="second", headers=["a"], rows=[[2]]),
            ],
        )
        assert list(result.records()) == [
            {"table": "first", "a": 1},
            {"table": "second", "a": 2},
        ]

    def test_adopts_raw_tables(self):
        table = Table(title="T", headers=["a"])
        table.add_row(1)
        result = ExperimentResult(
            experiment_id="eXX",
            title="t",
            profile="quick",
            seed=0,
            elapsed=0.0,
            tables=[table],
        )
        assert isinstance(result.tables[0], TableData)

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
        table = TableData(title="T", headers=["a"], rows=[[1]])
        result = ExperimentResult(
            experiment_id="eXX", title="t", profile="quick", seed=0,
            elapsed=0.0, tables=[table],
        )
        stored = {**result.to_dict(), "backend": "dense"}
        assert ExperimentResult.from_dict(stored).to_dict() == result.to_dict()

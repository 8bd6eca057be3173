"""Structured experiment results: typed rows + metadata, text rendered last.

v1 experiments produced :class:`Table` objects whose monospace rendering
was the *only* artifact.  v2 inverts that: an :class:`ExperimentResult`
carries the row data (as JSON-able scalars), the table schema (headers,
title, notes) and run metadata (profile, seed, elapsed seconds, schema
version), and the text table is *rendered from* the result.  The
result round-trips losslessly through JSON (``to_json``/``from_json``)
and exports per-table CSV, which is what the ``--format json|csv`` and
``--output`` CLI modes and the on-disk result cache are built on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from ..errors import ConfigurationError
from .table import Table

__all__ = ["SCHEMA_VERSION", "TableData", "ExperimentResult"]

#: Bump when the serialized layout changes incompatibly; ``from_dict``
#: rejects documents from a different major schema.
SCHEMA_VERSION = 2


def _plain_scalar(value: object) -> object:
    """Coerce numpy scalars to plain Python so JSON round-trips exactly."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass
class TableData:
    """One table's schema and rows, as JSON-able data.

    The shape mirrors :class:`Table` (title, headers, rows, notes) but
    rows are lists of plain scalars — numpy values are coerced on
    construction so ``to_dict`` → ``json`` → ``from_dict`` is lossless.
    """

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Normalise rows to lists of plain scalars and check arity."""
        self.headers = [str(header) for header in self.headers]
        if len(set(self.headers)) != len(self.headers):
            raise ConfigurationError(
                f"table {self.title!r}: duplicate headers {self.headers} "
                "would collapse record keys"
            )
        normalised = []
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ConfigurationError(
                    f"table {self.title!r}: row has {len(row)} cells, "
                    f"schema has {len(self.headers)} columns"
                )
            normalised.append([_plain_scalar(value) for value in row])
        self.rows = normalised
        self.notes = [str(note) for note in self.notes]

    @classmethod
    def from_table(cls, table: Table) -> "TableData":
        """Capture a rendered-oriented :class:`Table` as structured data."""
        return cls(
            title=table.title,
            headers=list(table.headers),
            rows=[list(row) for row in table.rows],
            notes=list(table.notes),
        )

    def to_table(self) -> Table:
        """Rebuild the :class:`Table` (text rendering happens there)."""
        return Table(
            title=self.title,
            headers=list(self.headers),
            rows=[tuple(row) for row in self.rows],
            notes=list(self.notes),
        )

    def records(self) -> Iterator[dict[str, object]]:
        """Yield each row as a ``{header: value}`` record dict."""
        for row in self.rows:
            yield dict(zip(self.headers, row))

    def to_csv(self) -> str:
        """The table as an RFC-4180 CSV document (header + rows)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def to_dict(self) -> dict:
        """JSON-able dict form."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TableData":
        """Inverse of :meth:`to_dict`."""
        return cls(
            title=payload["title"],
            headers=list(payload["headers"]),
            rows=[list(row) for row in payload["rows"]],
            notes=list(payload.get("notes", [])),
        )


@dataclass
class ExperimentResult:
    """One experiment run: metadata, structured tables, render-on-demand.

    Attributes
    ----------
    experiment_id, title, claim, tags:
        Copied from the :class:`~repro.experiments.spec.ExperimentSpec`.
    profile, seed:
        The run configuration.
    elapsed:
        Wall-clock seconds the runner took (0.0 for cache hits replayed
        from disk — the stored value is the original run's).
    tables:
        The structured per-table data.
    cached:
        True when this result was replayed from the on-disk cache rather
        than executed (not serialized; always False after a round-trip).
    """

    experiment_id: str
    title: str
    profile: str
    seed: int
    elapsed: float
    tables: list[TableData]
    claim: str = ""
    tags: tuple[str, ...] = ()
    cached: bool = False

    def __post_init__(self) -> None:
        """Normalise tags and adopt raw :class:`Table` objects."""
        self.tags = tuple(self.tags)
        self.tables = [
            table if isinstance(table, TableData) else TableData.from_table(table)
            for table in self.tables
        ]

    def records(self) -> Iterator[dict[str, object]]:
        """All row records across tables, tagged with their table title.

        The title rides under the ``"table"`` key — or ``"_table"`` when
        a table has a real column named ``table``, so cell data is never
        shadowed.
        """
        for table in self.tables:
            title_key = "_table" if "table" in table.headers else "table"
            for record in table.records():
                yield {title_key: table.title, **record}

    def render_text(self) -> str:
        """The harness text block for this run.

        One blank line before each table, then the table, then the
        ``[<id> completed in <t>s]`` footer line — the v1 harness print
        sequence, byte-identical to rendering the runner's tables
        directly.
        """
        parts = []
        for table in self.tables:
            parts.append("")
            parts.append(table.to_table().render())
        parts.append(f"\n[{self.experiment_id} completed in {self.elapsed:.1f}s]")
        return "\n".join(parts)

    def to_dict(self) -> dict:
        """JSON-able dict form (schema-versioned)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "tags": list(self.tags),
            "profile": self.profile,
            "seed": self.seed,
            "elapsed": self.elapsed,
            "tables": [table.to_dict() for table in self.tables],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions.

        A ``backend`` field, which documents written before the kernel
        choice became internal carry, is ignored.
        """
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported result schema_version {version!r} "
                f"(this library reads {SCHEMA_VERSION})"
            )
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            claim=payload.get("claim", ""),
            tags=tuple(payload.get("tags", ())),
            profile=payload["profile"],
            seed=payload["seed"],
            elapsed=payload["elapsed"],
            tables=[TableData.from_dict(table) for table in payload["tables"]],
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, document: str) -> "ExperimentResult":
        """Parse a document produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(document))

    def to_csv(self) -> str:
        """All tables as CSV, separated by ``# table:`` comment lines."""
        sections = []
        for table in self.tables:
            sections.append(f"# table: {self.experiment_id} / {table.title}")
            sections.append(table.to_csv().rstrip("\n"))
        return "\n".join(sections) + "\n"

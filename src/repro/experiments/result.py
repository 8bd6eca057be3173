"""Structured experiment results: run metadata plus the run's tables.

An :class:`ExperimentResult` carries one run's metadata (id, title,
claim, tags, profile, seed, elapsed seconds, schema version) and the
:class:`~repro.experiments.table.Table` objects its runner returned.
:class:`Table` is the one table type, so the text, CSV and JSON forms
of a result read the same plain-scalar cells.  The result round-trips
losslessly through JSON (``to_json``/``from_json``) and exports
per-table CSV, which is what the ``--format json|csv`` and ``--output``
CLI modes and the on-disk result cache are built on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..errors import ConfigurationError
from .table import Table

__all__ = ["SCHEMA_VERSION", "ExperimentResult"]

#: Bump when the serialized layout changes incompatibly; ``from_dict``
#: rejects documents from a different major schema.
SCHEMA_VERSION = 2


@dataclass
class ExperimentResult:
    """One experiment run: metadata, its tables, render-on-demand.

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
        The run's :class:`Table` objects.
    cached:
        True when this result was replayed from the on-disk cache rather
        than executed (not serialized; always False after a round-trip).
    """

    experiment_id: str
    title: str
    profile: str
    seed: int
    elapsed: float
    tables: list[Table]
    claim: str = ""
    tags: tuple[str, ...] = ()
    cached: bool = False

    def __post_init__(self) -> None:
        """Normalise tags to a tuple."""
        self.tags = tuple(self.tags)

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
        ``[<id> completed in <t>s]`` footer line.
        """
        parts = []
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
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
            tables=[Table.from_dict(table) for table in payload["tables"]],
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

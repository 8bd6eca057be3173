"""Result tables: the one table type of the experiment layer.

Every experiment runner returns :class:`Table` objects, an
:class:`~repro.experiments.result.ExperimentResult` holds them, and a
sweep renders its points and cells through them.  A table stores each
cell as a plain Python scalar, so its aligned text (:meth:`Table.render`),
its records, its CSV and its JSON form all read the same cells, and a
table rendered directly prints the same text as after a JSON round trip.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Table"]


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


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return f"{value:.2e}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class Table:
    """A titled table of plain scalar cells, rendered as aligned text.

    Attributes
    ----------
    title:
        Table caption, conventionally naming the paper claim it reproduces.
    headers:
        Column names.  Duplicates are rejected: they would collapse
        record keys.
    rows:
        Row tuples.  When the table is built or a row is added, a row of
        the wrong length is rejected and each cell is stored as a plain
        scalar: numpy booleans, integers and floats become Python ones,
        and anything else that is not ``bool``/``int``/``float``/``str``
        or ``None`` becomes its ``str``.
    notes:
        Free-text lines printed under the table.
    """

    title: str
    headers: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Check the headers, then check and coerce every given row."""
        self.headers = [str(header) for header in self.headers]
        if len(set(self.headers)) != len(self.headers):
            raise ConfigurationError(
                f"table {self.title!r}: duplicate headers {self.headers} "
                "would collapse record keys"
            )
        rows, self.rows = self.rows, []
        for row in rows:
            self.add_row(*row)
        self.notes = [str(note) for note in self.notes]

    def add_row(self, *values: object) -> None:
        """Append one row of plain scalars (must match the header count)."""
        if len(values) != len(self.headers):
            raise ConfigurationError(
                f"table {self.title!r}: row has {len(values)} cells, "
                f"table has {len(self.headers)} columns"
            )
        self.rows.append(tuple(_plain_scalar(value) for value in values))

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
    def from_dict(cls, payload: Mapping) -> "Table":
        """Inverse of :meth:`to_dict`."""
        return cls(
            title=payload["title"],
            headers=payload["headers"],
            rows=payload["rows"],
            notes=payload.get("notes", []),
        )

    def _numeric_columns(self) -> list[bool]:
        """Per-column flag: every body value is an int/float (bools aside).

        Numeric columns are right-aligned on render so magnitude columns
        (overheads, ratios, counts) scan vertically; anything mixed or
        textual keeps the classic left alignment.
        """
        flags = []
        for column in range(len(self.headers)):
            values = [row[column] for row in self.rows]
            flags.append(
                bool(values)
                and all(
                    isinstance(value, (int, float)) and not isinstance(value, bool)
                    for value in values
                )
            )
        return flags

    def render(self) -> str:
        """Render the table as aligned monospace text.

        Numeric columns (including their headers) are right-aligned;
        text and boolean columns are left-aligned.
        """
        cells = [list(self.headers)] + [
            [_format_cell(value) for value in row] for row in self.rows
        ]
        widths = [
            max(len(row[column]) for row in cells)
            for column in range(len(self.headers))
        ]
        numeric = self._numeric_columns()

        def align(row: list[str]) -> str:
            return "  ".join(
                cell.rjust(width) if is_numeric else cell.ljust(width)
                for cell, width, is_numeric in zip(row, widths, numeric)
            )

        lines = [self.title, "=" * len(self.title)]
        header_line = align(cells[0])
        lines.append(header_line)
        lines.append("-" * len(header_line))
        for row in cells[1:]:
            lines.append(align(row))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

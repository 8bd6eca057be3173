"""Long-form sweep results and per-cell aggregation.

A sweep produces one record per :class:`~repro.sweeps.grid.GridPoint`
(the **long form**: one row per family × n × eps × seed), and
:class:`SweepResult` aggregates those into **cells** — per
``(family, params, n, eps)`` statistics (mean/std/min/max of the success
rate, mean error counts) over the seed axis.

Aggregate cells deliberately exclude wall-clock fields: the simulated
numbers are a pure function of the grid, so two runs of one grid must
produce identical cell tables; only timing may differ, and timing lives
in the per-point records.

The whole result round-trips through JSON (:meth:`SweepResult.to_json`
/ :meth:`SweepResult.from_json`) and exports CSV for both granularities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import ConfigurationError
from ..experiments.table import Table

__all__ = ["SWEEP_SCHEMA_VERSION", "POINT_FIELDS", "CELL_KEY", "SweepResult"]

#: Bump when the serialized sweep layout changes incompatibly.
#: Version 2 added the ``gamma`` identity column to the point records.
#: Version 3 added the ``workload`` axis plus the workload metric
#: columns (``rounds_used``, ``messages_sent``, ``output_size``,
#: ``valid``); columns that do not apply to a point's workload hold
#: ``None`` (JSON ``null``, empty CSV cell).
#: Version 4 added the ``shards`` execution column (worker-process count
#: of the sharded tier; ``1`` = single-process).  ``shards`` is
#: provenance, not identity: it is deliberately excluded from
#: :data:`CELL_KEY`, because sharded execution was bit-identical.  The
#: tier is gone and the column is now always ``1``; it stays, at this
#: version, because perfbench's pinned ``sweep_noiseless`` digests hash
#: every point field, and leaves with the next re-pin.
#: Version 5 added the scenario axes: the ``noise_model`` identity
#: column (how the eps budget is spent — ``bernoulli``, ``adversarial``,
#: ``zone:<frac>``) and the ``churn`` identity column (per-epoch node
#: churn probability of the dynamic-topology wrapper; ``0.0`` = static).
#: Both are simulation identity and join :data:`CELL_KEY`.
#: The ``backend`` column is now always ``"auto"``: the schedule kernel
#: is chosen by size inside :mod:`repro.engine`, so it is no longer an
#: axis and has left :data:`CELL_KEY`.  Like ``shards``, it stays in the
#: point records, at this version, because the pinned digests hash it,
#: and leaves with the next re-pin.
SWEEP_SCHEMA_VERSION = 5

#: Column order of the long-form per-point records.
POINT_FIELDS: tuple[str, ...] = (
    "family",
    "params",
    "workload",
    "n",
    "eps",
    "noise_model",
    "churn",
    "gamma",
    "backend",
    "shards",
    "seed",
    "delta",
    "edges",
    "message_bits",
    "beep_rounds_per_round",
    "rounds",
    "successes",
    "success_rate",
    "phase1_node_errors",
    "phase2_node_errors",
    "r_collisions",
    "rounds_used",
    "messages_sent",
    "output_size",
    "valid",
    "elapsed",
    "cached",
)

#: The axes a cell aggregates over seeds within.
CELL_KEY: tuple[str, ...] = (
    "family",
    "params",
    "workload",
    "n",
    "eps",
    "noise_model",
    "churn",
)

#: Per-point quantities summarised into each cell (besides success_rate).
#: Workload-specific columns are ``None`` where they do not apply and
#: aggregate over the points that carry them (``None`` when none do).
_CELL_MEANS: tuple[str, ...] = (
    "delta",
    "edges",
    "beep_rounds_per_round",
    "phase1_node_errors",
    "phase2_node_errors",
    "rounds_used",
    "messages_sent",
    "output_size",
    "valid",
)


def _mean(values: list) -> "float | None":
    present = [value for value in values if value is not None]
    if not present:
        return None
    return sum(present) / len(present)


@dataclass
class SweepResult:
    """One executed sweep: the grid, the long-form points, aggregation.

    Attributes
    ----------
    profile:
        Execution profile the sweep ran under (``quick``/``full``/custom).
    grid:
        The originating :class:`~repro.sweeps.grid.GridSpec` as a dict.
    points:
        Long-form records, one per grid point, keyed by
        :data:`POINT_FIELDS` (plus nothing else — schema is fixed).
    """

    profile: str
    grid: dict
    points: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Check every point record carries exactly the known fields."""
        for record in self.points:
            missing = set(POINT_FIELDS) - set(record)
            extra = set(record) - set(POINT_FIELDS)
            if missing or extra:
                raise ConfigurationError(
                    f"malformed sweep point record (missing {sorted(missing)}, "
                    f"unexpected {sorted(extra)})"
                )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def cells(self) -> list[dict]:
        """Aggregate the points over seeds, one record per grid cell.

        Cells appear in first-seen point order; each carries the seed
        count and mean/std/min/max of the per-seed success rate plus the
        means of the structural and error columns.  ``std`` is the
        population standard deviation (0.0 for a single seed).
        """
        groups: dict[tuple, list[dict]] = {}
        for record in self.points:
            groups.setdefault(
                tuple(record[key] for key in CELL_KEY), []
            ).append(record)
        cells = []
        for key, members in groups.items():
            rates = [
                member["success_rate"]
                for member in members
                if member["success_rate"] is not None
            ]
            cell = dict(zip(CELL_KEY, key))
            cell["seeds"] = len(members)
            if rates:
                mean = _mean(rates)
                cell["success_mean"] = mean
                cell["success_std"] = math.sqrt(
                    _mean([(rate - mean) ** 2 for rate in rates])
                )
                cell["success_min"] = min(rates)
                cell["success_max"] = max(rates)
            else:
                # Algorithm workloads carry no decode statistics; the
                # cell keeps the schema with null success columns.
                cell["success_mean"] = None
                cell["success_std"] = None
                cell["success_min"] = None
                cell["success_max"] = None
            for column in _CELL_MEANS:
                cell[f"{column}_mean"] = _mean(
                    [member[column] for member in members]
                )
            cells.append(cell)
        return cells

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def points_table(self) -> Table:
        """The long-form records as a monospace :class:`Table`."""
        table = Table(
            title=f"Sweep points ({self.profile} profile)",
            headers=list(POINT_FIELDS),
        )
        for record in self.points:
            table.add_row(*(record[column] for column in POINT_FIELDS))
        return table

    def cells_table(self) -> Table:
        """The aggregate cells as a monospace :class:`Table`."""
        cells = self.cells()
        headers = (
            list(CELL_KEY)
            + ["seeds", "success_mean", "success_std", "success_min", "success_max"]
            + [f"{column}_mean" for column in _CELL_MEANS]
        )
        table = Table(
            title=f"Sweep aggregate: mean/std/min/max over seeds "
            f"({self.profile} profile)",
            headers=headers,
        )
        for cell in cells:
            table.add_row(*(cell[column] for column in headers))
        return table

    def render_text(self) -> str:
        """The CLI text block: aggregate table + a one-line footer."""
        cached = sum(1 for record in self.points if record["cached"])
        elapsed = sum(record["elapsed"] for record in self.points)
        footer = (
            f"[sweep completed: {len(self.points)} points "
            f"({cached} cached) in {elapsed:.1f}s simulated time]"
        )
        return f"{self.cells_table().render()}\n\n{footer}"

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def points_csv(self) -> str:
        """Long-form CSV: one row per grid point."""
        return self.points_table().to_csv()

    def cells_csv(self) -> str:
        """Aggregate CSV: one row per cell."""
        return self.cells_table().to_csv()

    def to_dict(self) -> dict:
        """JSON-able dict form (schema-versioned)."""
        return {
            "schema_version": SWEEP_SCHEMA_VERSION,
            "profile": self.profile,
            "grid": self.grid,
            "points": [dict(record) for record in self.points],
            "cells": self.cells(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepResult":
        """Inverse of :meth:`to_dict` (cells are re-derived, not trusted)."""
        version = payload.get("schema_version")
        if version != SWEEP_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported sweep schema_version {version!r} "
                f"(this library reads {SWEEP_SCHEMA_VERSION})"
            )
        return cls(
            profile=payload["profile"],
            grid=dict(payload["grid"]),
            points=[dict(record) for record in payload["points"]],
        )

    def to_json(self, *, indent: "int | None" = 2) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, document: str) -> "SweepResult":
        """Parse a document produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(document))

    @classmethod
    def collect(
        cls,
        profile: str,
        grid: dict,
        records: Iterable[dict],
    ) -> "SweepResult":
        """Assemble a result from per-point records in execution order."""
        return cls(profile=profile, grid=grid, points=list(records))

"""Experiment harness: one module per reproduced claim.

The claims and their experiments are mapped in docs/ARCHITECTURE.md,
"Map: paper claims → modules → experiments".

Run from the command line::

    python -m repro.experiments                 # list experiments
    python -m repro.experiments e06             # run one
    python -m repro.experiments all --jobs 4    # everything, 4 worker processes

or programmatically through the v2 API::

    from repro.experiments import run

    [result] = run(["e06"], profile="quick", seed=0)
    print(result.to_json())           # structured rows + metadata
    print(result.render_text())       # the classic monospace tables

Each experiment module declares itself with the
:func:`~repro.experiments.spec.experiment` decorator and receives a
:class:`RunContext`; runners return :class:`Table` objects that the
runner API wraps into :class:`ExperimentResult` records (JSON/CSV
serializable).
"""

from .table import Table
from .context import RunContext
from .spec import ExperimentSpec, experiment
from .result import ExperimentResult, TableData
from .registry import get_spec, all_specs
from .api import run

__all__ = [
    "Table",
    "TableData",
    "RunContext",
    "ExperimentSpec",
    "ExperimentResult",
    "experiment",
    "run",
    "get_spec",
    "all_specs",
]

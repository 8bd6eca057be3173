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
:func:`~repro.experiments.spec.experiment` decorator, which registers it
in :mod:`repro.experiments.spec`, and receives a :class:`RunContext`.
Runners return :class:`Table` objects, the one table type: the runner
API wraps them into :class:`ExperimentResult` records (JSON/CSV
serializable) without converting them.
"""

from .table import Table
from .context import RunContext
from .spec import ExperimentSpec, experiment, get_spec, all_specs
from .result import ExperimentResult
from .api import run

__all__ = [
    "Table",
    "RunContext",
    "ExperimentSpec",
    "ExperimentResult",
    "experiment",
    "run",
    "get_spec",
    "all_specs",
]

"""Scenario sweeps: declarative campaigns over the topology zoo.

The paper's claims are scaling statements — round complexity as a
function of ``n``, ``Δ``, ``D`` and noise — and single experiments probe
single points of that space.  This package turns the repo into a
campaign machine::

    from repro import sweeps

    result = sweeps.run({
        "topologies": ["expander", "torus", "caterpillar"],
        "sizes": [16, 32],
        "noises": [0.0, 0.05],
        "seeds": [0, 1],
    }, jobs=4, cache_dir="out/cache")

    print(result.cells_table().render())   # mean/std/min/max over seeds
    result.to_json()                       # lossless long-form document

or, from the command line::

    python -m repro.experiments sweep --grid grid.toml --jobs 4

Layering (see ``docs/ARCHITECTURE.md``): a :class:`GridSpec`
(:mod:`~repro.sweeps.grid`) expands topology-family × size × noise ×
backend × seed axes into :class:`GridPoint` cells; the engine
(:mod:`~repro.sweeps.engine`) groups each cell's seed axis into one
replica-batched :class:`~repro.core.round_simulator.BatchedSession`
(bit-identical to the per-seed sessions), fanning out over
processes and caching per-point results exactly like the Experiment API
v2 runner; :class:`SweepResult` (:mod:`~repro.sweeps.result`)
aggregates the long-form records into per-cell statistics that are
bit-identical across simulation backends.
"""

from .grid import GridPoint, GridSpec, load_grid
from .engine import execute_batch, execute_point, run
from .result import SweepResult
from .workloads import Workload, WorkloadOutcome, get_workload, workload_names

__all__ = [
    "GridPoint",
    "GridSpec",
    "SweepResult",
    "Workload",
    "WorkloadOutcome",
    "execute_batch",
    "execute_point",
    "get_workload",
    "load_grid",
    "run",
    "workload_names",
]

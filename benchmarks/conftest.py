"""Shared helpers for the benchmark suite.

``bench_experiments.py`` regenerates every experiment of the claim map in
docs/ARCHITECTURE.md via pytest-benchmark and prints its tables (run with
``-s`` to see them inline; they are also what ``python -m
repro.experiments`` prints).

The standalone ``BENCH_*.json``-writing scripts additionally share
:func:`host_metadata`, so every benchmark document carries the same
host-provenance block (CPU count, library versions, platform) and
numbers from different machines are never compared blind.
"""

from __future__ import annotations

import os
import platform

from repro.experiments import ExperimentSpec, RunContext, Table


def host_metadata() -> dict:
    """The host-provenance block embedded in every ``BENCH_*.json``.

    Benchmark numbers are only comparable with their execution context:
    CPU count bounds multi-process speedups, and library versions move
    kernel throughput between runs of the *same* code.
    """
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_and_print(benchmark, spec: ExperimentSpec) -> list[Table]:
    """Benchmark one quick-profile, seed-0 run of ``spec`` and print its tables."""
    ctx = RunContext(spec.id, profile="quick", seed=0)
    tables = benchmark.pedantic(spec.func, args=(ctx,), rounds=1, iterations=1)
    for table in tables:
        print()
        print(table.render())
    return tables

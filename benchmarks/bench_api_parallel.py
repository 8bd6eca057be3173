"""Bench the v2 runner API: serial vs process-parallel experiment fan-out.

Times ``repro.experiments.api.run`` over a fixed 4-experiment quick-profile
subset, once with ``jobs=1`` (in-process, the old harness behaviour) and
once with ``jobs=4`` (one worker process per experiment).  The parallel
run pays a pool spawn + result pickling tax, so the speedup is well below
4x on the quick profile — the gap widens with ``--profile full``-sized
sweeps.

Run with ``-s`` to see the wall-clock comparison inline::

    PYTHONPATH=src python -m pytest benchmarks/bench_api_parallel.py -s
"""

from __future__ import annotations

import time

from repro.experiments import api

#: A subset with non-trivial per-experiment work (simulation sweeps), so
#: process fan-out has something to amortise.
SUBSET = ["e04", "e05", "e06", "a01"]
SEED = 0


def _run(jobs: int):
    return api.run(SUBSET, profile="quick", seed=SEED, jobs=jobs)


def test_api_serial(benchmark):
    """Baseline: 4 experiments executed in-process, one after another."""
    results = benchmark.pedantic(_run, args=(1,), rounds=1, iterations=1)
    assert [r.experiment_id for r in results] == SUBSET


def test_api_parallel_jobs4(benchmark):
    """The same subset fanned out over 4 worker processes."""
    results = benchmark.pedantic(_run, args=(4,), rounds=1, iterations=1)
    assert [r.experiment_id for r in results] == SUBSET


def test_parallel_wall_clock_comparison():
    """Print the serial/parallel wall-clock ratio (identical results)."""
    started = time.perf_counter()
    serial = _run(1)
    serial_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    parallel = _run(4)
    parallel_elapsed = time.perf_counter() - started

    for a, b in zip(serial, parallel):
        assert [t.rows for t in a.tables] == [t.rows for t in b.tables]
    print(
        f"\nserial {serial_elapsed:.2f}s vs jobs=4 {parallel_elapsed:.2f}s "
        f"({serial_elapsed / max(parallel_elapsed, 1e-9):.2f}x) over {SUBSET}"
    )

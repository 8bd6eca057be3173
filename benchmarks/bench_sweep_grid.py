"""Benchmarks: the sweep engine's campaign paths.

Measures (a) one amortised grid point end to end, (b) a full small grid
executed serially vs. via the process pool, and (c) a fully cached
replay — the three regimes a campaign spends its time in.  Run with
``-s`` to see the aggregate table inline.
"""

from __future__ import annotations

from repro import sweeps
from repro.sweeps import GridSpec
from repro.sweeps.engine import execute_point

GRID = GridSpec.from_dict(
    {
        "topologies": ["expander", "torus", "caterpillar"],
        "sizes": [16, 32],
        "noises": [0.0, 0.05],
        "seeds": [0, 1],
        "rounds": 1,
    }
)


def test_single_point_amortised(benchmark):
    """One grid point: graph build + session + 1 Broadcast CONGEST round."""
    point = GRID.expand()[0]
    result = benchmark(execute_point, point)
    assert result.tables[0].rows


def test_grid_serial(benchmark):
    """The 24-point example-sized grid, serial in-process execution."""
    result = benchmark.pedantic(
        lambda: sweeps.run(GRID), rounds=1, iterations=1
    )
    assert len(result.points) == 24
    print()
    print(result.cells_table().render())


def test_grid_parallel_jobs4(benchmark):
    """Same grid fanned out over 4 worker processes."""
    result = benchmark.pedantic(
        lambda: sweeps.run(GRID, jobs=4), rounds=1, iterations=1
    )
    assert len(result.points) == 24


def test_grid_cached_replay(benchmark, tmp_path):
    """Second run of a cached grid: pure cache-replay throughput."""
    cache = tmp_path / "cache"
    sweeps.run(GRID, cache_dir=cache)  # warm

    def replay():
        return sweeps.run(GRID, cache_dir=cache)

    result = benchmark(replay)
    assert all(point["cached"] for point in result.points)

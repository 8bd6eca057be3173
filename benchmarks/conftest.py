"""Shared helpers for the benchmark suite.

Each ``bench_eXX`` module regenerates one experiment of the claim map in
docs/ARCHITECTURE.md via
pytest-benchmark and prints its tables (run with ``-s`` to see them
inline; they are also what ``python -m repro.experiments`` prints).

The standalone ``BENCH_*.json``-writing scripts additionally share
:func:`host_metadata`, so every benchmark document carries the same
host-provenance block (CPU count, library versions, platform) and
numbers from different machines are never compared blind.
"""

from __future__ import annotations

import os
import platform

from repro.experiments import Table


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
        "cc": _compiler_version(),
        "native_kernel_hash": _native_kernel_hash(),
    }


def _compiler_version() -> "str | None":
    """First line of ``cc --version``, or ``None`` on compiler-less hosts.

    Native-tier numbers depend on the code the compiler emits, so the
    provenance block pins which compiler produced the kernel.
    """
    import subprocess

    from repro.engine.native.build import compiler_path

    cc = compiler_path()
    if cc is None:
        return None
    try:
        probe = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    if probe.returncode != 0 or not probe.stdout:
        return None
    return probe.stdout.splitlines()[0].strip()


def _native_kernel_hash() -> str:
    """Source hash of the native kernel (the ``.so`` cache key)."""
    from repro.engine.native.build import kernel_source_hash

    return kernel_source_hash()


def run_and_print(benchmark, runner, quick: bool = True, seed: int = 0) -> list[Table]:
    """Benchmark one experiment runner (single round) and print its tables."""
    tables = benchmark.pedantic(
        runner, kwargs={"quick": quick, "seed": seed}, rounds=1, iterations=1
    )
    for table in tables:
        print()
        print(table.render())
    return tables

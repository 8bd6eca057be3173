"""Shared fixtures and hypothesis profiles for the test suite.

Two hypothesis profiles: ``dev`` (no per-example deadline, since
simulated rounds vary widely in cost) is loaded by default; ``ci`` adds
derandomised example generation and failure blobs, so a failing property
reproduces exactly.  ``HYPOTHESIS_PROFILE=ci`` selects it.

:func:`force_kernel` routes every schedule of one test through one of
the executor's two kernels, so end-to-end suites can hold the dense and
the bit-packed branch to each other; :func:`force_phase1` does the same
for the two counting kernels of the sessions' phase-1 decode, and
:func:`force_chunk` cuts every session round into smaller replica
chunks, so suites can hold a chunked batch to a whole one.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import engine
from repro.core import round_simulator
from repro.core import SimulationParameters
from repro.graphs import (
    Topology,
    complete_graph,
    gnp_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)

settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci", parent=settings.get_profile("dev"), derandomize=True, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def path6() -> Topology:
    """A 6-node path (Δ = 2, diameter 5)."""
    return Topology(path_graph(6))


@pytest.fixture
def star8() -> Topology:
    """An 8-node star (Δ = 7)."""
    return Topology(star_graph(8))


@pytest.fixture
def k5() -> Topology:
    """The complete graph on 5 nodes."""
    return Topology(complete_graph(5))


@pytest.fixture
def regular12() -> Topology:
    """A 12-node 3-regular graph."""
    return Topology(random_regular_graph(12, 3, seed=7))


@pytest.fixture
def sparse20() -> Topology:
    """A sparse 20-node G(n, p) graph."""
    return Topology(gnp_graph(20, 0.15, seed=3))


@pytest.fixture
def small_params() -> SimulationParameters:
    """Compact noiseless parameters for fast simulation tests."""
    return SimulationParameters(message_bits=6, max_degree=3, eps=0.0, c=3)


@pytest.fixture
def noisy_params() -> SimulationParameters:
    """Compact noisy parameters (ε = 0.1) for simulation tests."""
    return SimulationParameters(message_bits=6, max_degree=3, eps=0.1, c=5)


@pytest.fixture
def force_kernel(monkeypatch):
    """``force_kernel("dense" | "bitpacked")``: pin the executor's branch.

    Moves the size thresholds of :func:`repro.engine.run_schedule_batch`
    (undone after the test) so every schedule, whatever its size, runs
    on the named kernel.  Only this process is affected: worker
    processes start from a fresh import.
    """

    def force(kernel: str) -> None:
        if kernel == "dense":
            monkeypatch.setattr(engine, "_PACKED_MIN_ROUNDS", float("inf"))
        elif kernel == "bitpacked":
            monkeypatch.setattr(engine, "_PACKED_MIN_ROUNDS", 0)
            monkeypatch.setattr(engine, "_PACKED_MIN_CELLS", 0)
        else:
            raise ValueError(f"unknown kernel {kernel!r}")

    return force


@pytest.fixture
def force_phase1(monkeypatch):
    """``force_phase1("gather" | "sgemm")``: pin phase 1's counting kernel.

    Moves the size threshold of the sessions' phase-1 decode (undone
    after the test) so every round, whatever its candidate count and
    network size, counts with the named kernel.  Only this process is
    affected: worker processes start from a fresh import.
    """

    def force(kernel: str) -> None:
        if kernel == "gather":
            monkeypatch.setattr(round_simulator, "_GATHER_MIN_CELLS", 0)
        elif kernel == "sgemm":
            monkeypatch.setattr(round_simulator, "_GATHER_MIN_CELLS", float("inf"))
        else:
            raise ValueError(f"unknown phase-1 kernel {kernel!r}")

    return force


@pytest.fixture
def force_chunk(monkeypatch):
    """``force_chunk(cells)``: move the session round driver's chunk budget.

    Sets the schedule cells one chunk of a round may hold (undone after
    the test), so a batch of replicas with ``n·b`` cells each runs in
    chunks of ``max(1, cells // (n·b))``: ``force_chunk(0)`` runs one
    replica per chunk.  Only this process is affected: worker processes
    start from a fresh import.
    """

    def force(cells: int) -> None:
        monkeypatch.setattr(round_simulator, "_CHUNK_CELLS", cells)

    return force

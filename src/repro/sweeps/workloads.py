"""The sweep engine's workload axis: what runs on each grid point.

Historically a sweep point simulated Broadcast CONGEST rounds of random
messages through the beeping stack (the ``"broadcast"`` workload).  The
``workload`` axis opens the other half of the paper: each algorithm
workload runs a distributed algorithm from :mod:`repro.algorithms` on
the point's zoo graph — through its ``run_*_bc`` entry point — and
records workload-level metrics (rounds used, messages sent, output size,
checker validity) instead of decode statistics.

Algorithm workloads execute on perfect channels (the array-native
Broadcast CONGEST engine), so the grid's noise axis does not affect
them; sweep algorithm grids conventionally pin ``noises = [0.0]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..algorithms import (
    UNMATCHED,
    check_bfs_tree,
    check_leader_election,
    check_matching,
    check_mis,
    matching_message_bits,
    mis_message_bits,
    run_bfs_bc,
    run_leader_election_bc,
    run_matching_bc,
    run_mis_bc,
)
from ..algorithms.bfs import bfs_field_widths
from ..congest.model import required_bits
from ..errors import ConfigurationError
from ..graphs import Topology

__all__ = [
    "WorkloadOutcome",
    "Workload",
    "WORKLOADS",
    "workload_names",
    "get_workload",
    "run_workload",
]


@dataclass(frozen=True)
class WorkloadOutcome:
    """Workload-level metrics of one algorithm run on one grid point.

    Attributes
    ----------
    rounds_used, messages_sent:
        The :class:`~repro.congest.network.RunResult` accounting.
    output_size:
        The workload's size metric: matched pairs, MIS size, nodes
        reached (BFS), distinct leaders.
    valid:
        Whether the run finished *and* its outputs passed the
        workload's :mod:`repro.algorithms.verification` checker.
    message_bits:
        The per-round budget the algorithm's codec required.
    """

    rounds_used: int
    messages_sent: int
    output_size: int
    valid: bool
    message_bits: int


@dataclass(frozen=True)
class Workload:
    """One registered sweep workload.

    Attributes
    ----------
    name:
        The axis value used in grid specs.
    description:
        One-line summary shown by ``sweep --list-workloads``.
    runner:
        ``(topology, seed) -> WorkloadOutcome`` for algorithm
        workloads; ``None`` for the built-in ``"broadcast"`` workload,
        which the engine executes through the beeping session instead.
    """

    name: str
    description: str
    runner: "Callable[[Topology, int], WorkloadOutcome] | None" = None


def _matching_runner(topology: Topology, seed: int) -> WorkloadOutcome:
    """Run Algorithm 3 maximal matching and validate the matching."""
    n = topology.num_nodes
    result = run_matching_bc(topology, seed=seed)
    ok, _ = check_matching(topology, list(range(n)), result.outputs)
    matched = sum(1 for output in result.outputs if output != UNMATCHED)
    return WorkloadOutcome(
        rounds_used=result.rounds_used,
        messages_sent=result.messages_sent,
        output_size=matched // 2,
        valid=bool(ok and result.finished),
        message_bits=matching_message_bits(n),
    )


def _mis_runner(topology: Topology, seed: int) -> WorkloadOutcome:
    """Run Luby's MIS and validate independence plus maximality."""
    result = run_mis_bc(topology, seed=seed)
    ok, _ = check_mis(topology, result.outputs)
    return WorkloadOutcome(
        rounds_used=result.rounds_used,
        messages_sent=result.messages_sent,
        output_size=sum(1 for output in result.outputs if output is True),
        valid=bool(ok and result.finished),
        message_bits=mis_message_bits(topology.num_nodes),
    )


def _bfs_runner(topology: Topology, seed: int) -> WorkloadOutcome:
    """Run BFS-tree construction from node 0 and validate the layers."""
    n = topology.num_nodes
    result = run_bfs_bc(topology, 0, seed=seed)
    ok, _ = check_bfs_tree(topology, list(range(n)), 0, result.outputs)
    reached = sum(1 for distance, _ in result.outputs if distance >= 0)
    # Unreachable nodes never cease, so `finished` is only demanded on
    # connected graphs; validity is the checker's distance comparison.
    return WorkloadOutcome(
        rounds_used=result.rounds_used,
        messages_sent=result.messages_sent,
        output_size=reached,
        valid=bool(ok),
        message_bits=sum(bfs_field_widths(n)),
    )


def _leader_runner(topology: Topology, seed: int) -> WorkloadOutcome:
    """Run max-ID flooding and validate per-component agreement."""
    n = topology.num_nodes
    result = run_leader_election_bc(topology, seed=seed)
    ok, _ = check_leader_election(topology, list(range(n)), result.outputs)
    return WorkloadOutcome(
        rounds_used=result.rounds_used,
        messages_sent=result.messages_sent,
        output_size=len(set(result.outputs)),
        valid=bool(ok and result.finished),
        message_bits=required_bits(max(2, n)),
    )


#: The workload registry, keyed by axis value (insertion order = docs order).
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "broadcast",
            "Broadcast CONGEST rounds of random messages over noisy beeps "
            "(the decode-statistics workload)",
        ),
        Workload(
            "matching",
            "Algorithm 3 maximal matching (Lemmas 17-20)",
            _matching_runner,
        ),
        Workload("mis", "Luby's maximal independent set", _mis_runner),
        Workload("bfs", "Layered BFS tree from node 0", _bfs_runner),
        Workload("leader", "Max-ID flooding leader election", _leader_runner),
    )
}


def workload_names() -> tuple[str, ...]:
    """All registered workload names, in registry order."""
    return tuple(WORKLOADS)


def get_workload(name: str) -> Workload:
    """Look up a workload by name.

    Unknown names raise a one-line :class:`ConfigurationError` listing
    every known workload — the message the sweep CLI surfaces verbatim.
    """
    workload = WORKLOADS.get(name)
    if workload is None:
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {', '.join(workload_names())}"
        )
    return workload


def run_workload(name: str, topology: Topology, seed: int) -> WorkloadOutcome:
    """Execute one algorithm workload on one topology."""
    workload = get_workload(name)
    if workload.runner is None:
        raise ConfigurationError(
            f"workload {name!r} runs through the beeping session, not "
            "run_workload()"
        )
    return workload.runner(topology, seed)

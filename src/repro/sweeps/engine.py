"""The sweep engine: execute a grid, cell by cell, batched, cached, parallel.

Each :class:`~repro.sweeps.grid.GridPoint` becomes one **amortised
simulation**: the zoo graph is built (seed-derived), code parameters are
sized from the realised maximum degree, and the point's Broadcast CONGEST
rounds run through the session engine of
:mod:`repro.core.round_simulator` — codes, channel and decoder
matrices are constructed once per point, not once per round.

On top of that the engine **auto-batches the seed axis**: pending points
that differ only by seed (one grid *cell*) are grouped, and every subset
whose seed-derived graphs realise the *same* topology — always the whole
cell for deterministic families like ``path`` or ``hypercube``, usually
singletons for randomised families like ``expander`` — executes as one
:class:`~repro.core.round_simulator.BatchedSession`, which stacks the
replicas into single 3-D schedule calls.  Batching never changes a
simulated number: replica ``r`` of a batch is bit-identical to the
standalone per-seed session (the :class:`BatchedSession` contract), so
a sweep's records equal those of :func:`execute_point` run seed by
seed, timing fields aside.

Execution reuses the Experiment API v2 machinery wholesale: work fans
out over a :class:`concurrent.futures.ProcessPoolExecutor` exactly like
experiment ids do in :func:`repro.experiments.api.run` (one batch group
per task), and each point's record is cached on disk as an
:class:`~repro.experiments.result.ExperimentResult` through the same
:func:`~repro.experiments.api.cache_path` /
:func:`~repro.experiments.api.load_cached` /
:func:`~repro.experiments.api.write_cache` helpers — keyed by
``(point slug, profile, seed)`` and **verified** against the full
:class:`GridPoint` identity (family, generator params, ``n``, ``eps``,
``gamma``, ``rounds``, seed) before replay, so neither an edited grid
axis nor a slug sanitisation collision can resurrect a stale cell.

Determinism: all randomness derives from ``(seed, family, n, eps,
gamma)`` via :func:`repro.rng.derive_seed`, and the schedule kernels
are bit-identical, so a grid's simulated numbers depend on nothing but
the grid.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ..beeping.noise import DynamicTopology, make_noise_model
from ..core.parameters import SimulationParameters
from ..core.round_simulator import BatchedSession
from ..engine import mp_context
from ..errors import ConfigurationError
from ..experiments import api
from ..experiments.result import ExperimentResult
from ..experiments.table import Table
from ..graphs import Topology, build_family_graph
from ..rng import derive_rng, derive_seed, random_bits
from .grid import GridPoint, GridSpec, load_grid
from .result import POINT_FIELDS, SweepResult
from .workloads import run_workload

__all__ = ["run", "execute_point", "execute_batch"]

#: Title of the single table each point result carries.
_POINT_TABLE_TITLE = "sweep-point"

#: Long-form columns produced by the simulation itself (the rest —
#: elapsed, cached — are attached by the runner).
_MEASURED_FIELDS = tuple(
    name for name in POINT_FIELDS if name not in ("elapsed", "cached")
)


def _point_topology(point: GridPoint) -> Topology:
    """Build the point's validated zoo graph (seed-derived) as a topology."""
    graph_seed = derive_seed(point.seed, "sweep-graph", point.family, point.n)
    graph = build_family_graph(
        point.family, point.n, seed=graph_seed, params=dict(point.params)
    )
    return Topology(graph)


def _point_parameters(point: GridPoint, topology: Topology) -> SimulationParameters:
    """Size code parameters from the point axes and the realised ``Δ``."""
    return SimulationParameters.for_network(
        point.n, topology.max_degree, eps=point.eps, gamma=point.gamma
    )


def _session_seed(point: GridPoint) -> int:
    """The per-point master seed: every stream of the point derives here."""
    return derive_seed(
        point.seed, "sweep-session", point.family, point.n, point.eps, point.gamma
    )


def _point_result(
    point: GridPoint,
    profile: str,
    measured: Mapping,
    elapsed: float,
) -> ExperimentResult:
    """Assemble one point's structured result from its measured record.

    ``measured`` maps every measured field (:data:`POINT_FIELDS` minus
    the runner-attached ``elapsed``/``cached``); workload-inapplicable
    columns hold ``None``.
    """
    table = Table(title=_POINT_TABLE_TITLE, headers=list(_MEASURED_FIELDS))
    table.add_row(*(measured[name] for name in _MEASURED_FIELDS))
    return ExperimentResult(
        experiment_id=point.slug(),
        title=f"sweep point: {point.label()}",
        profile=profile,
        seed=point.seed,
        elapsed=elapsed,
        tables=[table],
        tags=("sweep", point.family, point.workload),
    )


def _identity_columns(point: GridPoint, topology: Topology) -> dict:
    """The record columns shared by every workload: axes and structure."""
    return {
        "family": point.family,
        "params": point.params_label(),
        "workload": point.workload,
        "n": point.n,
        "eps": point.eps,
        "noise_model": point.noise_model,
        "churn": point.churn,
        "gamma": point.gamma,
        # Always "auto" and 1: the schedule kernel is chosen by size, and
        # every point runs in one process.  Both columns stay because
        # perfbench's pinned sweep digests hash every point field.
        "backend": "auto",
        "shards": 1,
        "seed": point.seed,
        "delta": topology.max_degree,
        "edges": topology.num_edges,
        "rounds": point.rounds,
    }


def _execute_workload_point(point: GridPoint, profile: str) -> ExperimentResult:
    """Run one algorithm-workload point: build the graph, run, check.

    The algorithm executes on perfect channels through its ``run_*_bc``
    entry point; its seed derives from ``(seed, workload, family, n)`` —
    noise and gamma do not enter, because they do not affect a native
    algorithm run.
    """
    topology = _point_topology(point)
    started = time.perf_counter()
    outcome = run_workload(
        point.workload,
        topology,
        seed=derive_seed(
            point.seed, "sweep-workload", point.workload, point.family, point.n
        ),
    )
    elapsed = time.perf_counter() - started
    measured = _identity_columns(point, topology)
    measured.update(
        message_bits=outcome.message_bits,
        beep_rounds_per_round=None,
        successes=None,
        success_rate=None,
        phase1_node_errors=None,
        phase2_node_errors=None,
        r_collisions=None,
        rounds_used=outcome.rounds_used,
        messages_sent=outcome.messages_sent,
        output_size=outcome.output_size,
        valid=outcome.valid,
    )
    return _point_result(point, profile, measured, elapsed)


def execute_point(point: GridPoint, profile: str = "quick") -> ExperimentResult:
    """Simulate one grid point end to end and return its structured result.

    For the ``broadcast`` workload: builds the validated zoo graph,
    sizes :class:`SimulationParameters` from the realised ``Δ``, then
    drives ``point.rounds`` Broadcast CONGEST rounds of uniformly random
    ``B``-bit messages (all nodes transmit) through one amortised
    session.  Every stream — graph, channel, per-round strings, messages
    — derives from ``(seed, family, n, eps, gamma)``.  Implemented as a batch of one, which the
    :class:`~repro.core.round_simulator.BatchedSession` contract makes
    bit-identical to the historical per-seed
    :class:`~repro.core.round_simulator.BroadcastSession` loop.

    Algorithm workloads run the named algorithm on the same zoo graph
    on perfect channels.
    """
    [result] = execute_batch([point], profile=profile)
    return result


def execute_batch(
    points: "Sequence[GridPoint]", profile: str = "quick"
) -> list[ExperimentResult]:
    """Simulate a group of same-cell points (differing only by seed) at once.

    All points must share every axis except ``seed``.  For the
    ``broadcast`` workload, seeds whose derived graphs realise the same
    topology run as one :class:`~repro.core.round_simulator.
    BatchedSession` (replica-batched schedule calls); seeds with distinct
    graphs — randomised families — fall back to singleton batches.
    Algorithm-workload points execute seed by seed.  Results come back in input order and are value-identical
    to ``[execute_point(p) for p in points]`` except for wall-clock
    metadata (a batch's elapsed time is divided evenly over its
    replicas).
    """
    if not points:
        return []
    first = points[0]
    for point in points[1:]:
        if (
            point.family != first.family
            or point.params != first.params
            or point.workload != first.workload
            or point.n != first.n
            or point.eps != first.eps
            or point.noise_model != first.noise_model
            or point.churn != first.churn
            or point.rounds != first.rounds
            or point.gamma != first.gamma
        ):
            raise ConfigurationError(
                "execute_batch points must differ only by seed; got "
                f"{point.label()} next to {first.label()}"
            )
    if first.workload != "broadcast":
        return [_execute_workload_point(point, profile) for point in points]
    topologies = [_point_topology(point) for point in points]

    # Replica groups: identical realised adjacency (deterministic families
    # collapse to one group; randomised families usually split apart).
    groups: dict[bytes, list[int]] = {}
    if first.churn:
        # Churn masks derive from each point's session seed, so replicas
        # cannot share one dynamic topology — every point runs alone.
        groups = {
            index.to_bytes(8, "big"): [index] for index in range(len(points))
        }
    else:
        for index, topology in enumerate(topologies):
            adjacency = topology.adjacency
            fingerprint = (
                adjacency.indptr.tobytes() + adjacency.indices.tobytes()
            )
            groups.setdefault(fingerprint, []).append(index)

    results: list[ExperimentResult] = [None] * len(points)  # type: ignore[list-item]
    for indices in groups.values():
        topology = topologies[indices[0]]
        params = _point_parameters(first, topology)
        started = time.perf_counter()
        # The per-replica channels come from the noise-model registry;
        # "bernoulli" reproduces the historical default channel
        # bit-for-bit (same seed derivation), so schema-v4 numbers carry
        # over unchanged.
        channels = [
            make_noise_model(
                first.noise_model,
                first.eps,
                _session_seed(points[index]),
                first.n,
            )
            for index in indices
        ]
        session_topology: "Topology | DynamicTopology" = topology
        if first.churn:
            # Churn groups are singletons (see execute_batch): one mask
            # schedule per point, re-drawn once per simulated round,
            # keyed by the point's session seed.
            [churn_index] = indices
            session_topology = DynamicTopology(
                topology,
                period=params.rounds_per_simulated_round,
                churn=first.churn,
                seed=derive_seed(_session_seed(points[churn_index]), "churn"),
            )
        session = BatchedSession(
            session_topology,
            params,
            [_session_seed(points[index]) for index in indices],
            channels=channels,
        )
        message_rngs = [
            derive_rng(_session_seed(points[index]), "sweep-messages")
            for index in indices
        ]
        successes = [0] * len(indices)
        phase1_errors = [0] * len(indices)
        phase2_errors = [0] * len(indices)
        r_collisions = [0] * len(indices)
        for _round in range(first.rounds):
            batch_messages = [
                [
                    random_bits(rng, params.message_bits)
                    for _ in range(first.n)
                ]
                for rng in message_rngs
            ]
            outcomes = session.run_round(batch_messages)
            for position, outcome in enumerate(outcomes):
                successes[position] += 1 if outcome.success else 0
                phase1_errors[position] += outcome.phase1_errors
                phase2_errors[position] += outcome.phase2_errors
                r_collisions[position] += 1 if outcome.r_collision else 0
        elapsed = (time.perf_counter() - started) / len(indices)
        for position, index in enumerate(indices):
            point = points[index]
            measured = _identity_columns(point, topology)
            measured.update(
                message_bits=params.message_bits,
                beep_rounds_per_round=params.rounds_per_simulated_round,
                successes=successes[position],
                success_rate=successes[position] / point.rounds,
                phase1_node_errors=phase1_errors[position],
                phase2_node_errors=phase2_errors[position],
                r_collisions=r_collisions[position],
                rounds_used=point.rounds,
                messages_sent=point.n * point.rounds,
                output_size=None,
                valid=None,
            )
            results[index] = _point_result(point, profile, measured, elapsed)
    # Every input index is covered by exactly one fingerprint group, so
    # no slot can be left empty — fail loudly rather than ever letting a
    # coverage bug misalign results with their points.
    if any(result is None for result in results):  # pragma: no cover
        raise ConfigurationError("execute_batch left a point without a result")
    return results


def _execute_payload(
    payload: "tuple[tuple[GridPoint, ...], str]",
) -> list[dict]:
    """Worker-process entry: run one batch group, return its dict forms."""
    points, profile = payload
    return [
        result.to_dict()
        for result in execute_batch(list(points), profile=profile)
    ]


def _point_record(point: GridPoint, result: ExperimentResult) -> dict:
    """Flatten one point's :class:`ExperimentResult` into a long-form row."""
    [table] = [
        candidate
        for candidate in result.tables
        if candidate.title == _POINT_TABLE_TITLE
    ]
    [record] = list(table.records())
    record["elapsed"] = result.elapsed
    record["cached"] = result.cached
    return record


def _cache_identity_matches(point: GridPoint, result: ExperimentResult) -> bool:
    """Whether a cached result's record carries exactly ``point``'s identity.

    The cache file name and stored ``experiment_id`` are the sanitised
    :meth:`GridPoint.slug`, which can collide for distinct axis values
    (sanitisation maps punctuation-only differences onto one name) and
    predates schema additions; the long-form record inside the result
    carries the *unsanitised* identity, so replay requires every
    identity column — family, generator params, ``n``, ``eps``,
    ``noise_model``, ``churn``, ``gamma``, seed, ``rounds`` —
    to match the requested point exactly.  Anything malformed or
    mismatched is a cache miss.
    """
    try:
        record = _point_record(point, result)
    except (ValueError, KeyError, TypeError):
        return False
    try:
        return (
            record["family"] == point.family
            and record["params"] == point.params_label()
            and record["workload"] == point.workload
            and record["n"] == point.n
            and record["eps"] == point.eps
            and record["noise_model"] == point.noise_model
            and record["churn"] == point.churn
            and record["gamma"] == point.gamma
            and record["seed"] == point.seed
            and record["rounds"] == point.rounds
        )
    except KeyError:
        return False


def _load_cached_point(
    cache_dir: "str | Path", point: GridPoint, profile: str
) -> "ExperimentResult | None":
    """Probe the on-disk cache for one point, with full identity verification."""
    cached = api.load_cached(
        api.cache_path(cache_dir, point.slug(), profile=profile, seed=point.seed),
        experiment_id=point.slug(),
        profile=profile,
        seed=point.seed,
    )
    if cached is None or not _cache_identity_matches(point, cached):
        return None
    return cached


def _batch_groups(
    points: "Sequence[GridPoint]",
    pending: "Sequence[int]",
    jobs: int = 1,
) -> list[list[int]]:
    """Partition pending point indices into executable batch groups.

    Points sharing every axis but seed (one grid cell) form one group,
    in first-seen order.  When fewer groups than ``jobs`` come out, the
    largest groups are halved until the worker pool can be saturated —
    sub-groups of a cell still batch internally, so this trades some
    batching width for fan-out instead of leaving workers idle on
    few-cell grids.
    """
    groups: dict[tuple, list[int]] = {}
    for index in pending:
        point = points[index]
        key = (
            point.family,
            point.params,
            point.workload,
            point.n,
            point.eps,
            point.noise_model,
            point.churn,
            point.rounds,
            point.gamma,
        )
        groups.setdefault(key, []).append(index)
    split = list(groups.values())
    while len(split) < min(jobs, len(pending)):
        largest = max(range(len(split)), key=lambda i: len(split[i]))
        if len(split[largest]) < 2:
            break
        group = split.pop(largest)
        half = len(group) // 2
        split.extend([group[:half], group[half:]])
    return split


def run(
    grid: "GridSpec | Mapping | str | Path",
    *,
    profile: str = "quick",
    jobs: int = 1,
    cache_dir: "str | Path | None" = None,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Execute a sweep grid and return the aggregated :class:`SweepResult`.

    Parameters
    ----------
    grid:
        A :class:`GridSpec`, a dict (TOML-shaped or flat), or a path to
        a ``grid.toml`` — validated eagerly before anything runs.
    profile:
        ``"quick"`` (grid's ``rounds`` per point), ``"full"`` (scaled
        up), or a custom label treated as quick but recorded verbatim.
    jobs:
        Worker processes; ``1`` runs batch groups serially in-process.
    cache_dir:
        On-disk result cache shared with the experiment runner; hits are
        replayed without simulating (flagged ``cached`` in the records)
        after their stored identity is verified against the point.
    progress:
        Optional callback receiving one-line per-point status messages.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    spec = load_grid(grid)
    points = spec.expand(profile=profile)

    hits: dict[int, ExperimentResult] = {}
    pending: list[int] = []
    for index, point in enumerate(points):
        cached = (
            _load_cached_point(cache_dir, point, profile)
            if cache_dir is not None
            else None
        )
        if cached is not None:
            hits[index] = cached
        else:
            pending.append(index)

    results: dict[int, ExperimentResult] = dict(hits)

    def finish(index: int, result: ExperimentResult) -> None:
        results[index] = result
        if cache_dir is not None and not result.cached:
            api.write_cache(
                api.cache_path(
                    cache_dir,
                    points[index].slug(),
                    profile=profile,
                    seed=points[index].seed,
                ),
                result,
            )
        if progress is not None:
            status = (
                "cache hit" if result.cached else f"done in {result.elapsed:.1f}s"
            )
            progress(f"{points[index].label()}: {status}")

    groups = _batch_groups(points, pending, jobs=jobs)
    if pending and jobs > 1:
        payloads = [
            (tuple(points[index] for index in group), profile)
            for group in groups
        ]
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(groups)), mp_context=mp_context()
        ) as pool:
            fresh = pool.map(_execute_payload, payloads)  # yields in order
            for group in groups:
                group_dicts = next(fresh)
                for index, payload_dict in zip(group, group_dicts):
                    finish(index, ExperimentResult.from_dict(payload_dict))
        for index in hits:
            finish(index, hits[index])
    else:
        for group in groups:
            group_results = execute_batch(
                [points[index] for index in group], profile=profile
            )
            for index, result in zip(group, group_results):
                finish(index, result)
        for index in hits:
            finish(index, hits[index])

    return SweepResult.collect(
        profile,
        spec.to_dict(),
        (_point_record(points[index], results[index]) for index in range(len(points))),
    )

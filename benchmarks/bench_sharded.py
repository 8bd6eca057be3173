"""Sharded-engine benchmark: single process vs P shard workers.

Measures the PR-6 tentpole end to end on one large zoo graph:

* **schedule throughput** — one ``(n, rounds)`` beep schedule through
  ``run_schedule`` (the bit-packed kernel single-process, then the same
  kernel hash-sharded across each ``--shards`` value, boundary rows
  exchanged in chunks every round block);
* **flood broadcast** — frontier expansion from node 0, one one-column
  ``run_schedule`` per step, until the whole component is covered.

Every sharded run executes under a per-worker
:class:`~repro.memguard.MemoryGuard` budget (``--budget-mb``), records
each worker's **peak RSS**, and is verified **bit-identical** to the
single-process reference before any number is reported — so the ratios
are pure execution-fabric throughput, never silent divergence.

Usage::

    PYTHONPATH=src python benchmarks/bench_sharded.py             # full (n = 10^6)
    PYTHONPATH=src python benchmarks/bench_sharded.py --quick     # CI smoke

Writes ``BENCH_sharded.json`` (see ``--output``).  On a single-vCPU
host the sharded tier cannot beat one process on wall-clock — workers
time-slice one core and pay exchange overhead; the figures of merit
there are the per-worker peak RSS (the memory the fabric shards away
from any one process) and the verified bit-identity.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from conftest import host_metadata
from repro.engine import ShardedBackend, resolve_backend
from repro.graphs import Topology, build_family_graph
from repro.rng import derive_rng, derive_seed


def build_topology(family: str, n: int, seed: int) -> Topology:
    """One validated zoo graph for the whole benchmark run."""
    graph_seed = derive_seed(seed, "bench-sharded-graph", family, n)
    return Topology(build_family_graph(family, n, seed=graph_seed))


def make_schedule(topology: Topology, rounds: int, seed: int) -> np.ndarray:
    """A reproducible random beep schedule (~20% beep density)."""
    rng = derive_rng(seed, "bench-sharded-schedule")
    return rng.random((topology.num_nodes, rounds)) < 0.2


def timed(callable_, repeats: int) -> "tuple[object, list[float]]":
    """Run ``callable_`` ``repeats`` times; return (last result, timings)."""
    timings = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = callable_()
        timings.append(time.perf_counter() - started)
    return result, timings


def flood_broadcast(backend, topology: Topology, max_rounds: int) -> np.ndarray:
    """Frontier expansion from node 0 via one-column schedules until coverage."""
    covered = np.zeros(topology.num_nodes, dtype=bool)
    covered[0] = True
    for _ in range(max_rounds):
        # Heard bits include each node's own beep: this is covered | OR.
        grown = backend.run_schedule(topology, covered[:, np.newaxis])[:, 0]
        if np.array_equal(grown, covered):
            break
        covered = grown
    return covered


def summarize(timings: "list[float]") -> dict:
    """Median/min/max of one timing series."""
    return {
        "median": statistics.median(timings),
        "min": min(timings),
        "max": max(timings),
        "samples": len(timings),
    }


def measure_shard_count(
    topology: Topology,
    schedule: np.ndarray,
    reference_heard: np.ndarray,
    reference_flood: np.ndarray,
    shards: int,
    kernel: str,
    budget_bytes: "int | None",
    repeats: int,
    flood_rounds: int,
) -> dict:
    """One ``--shards`` value: timings, per-worker peaks, bit-identity."""
    n, rounds = schedule.shape
    if shards == 1:
        backend = resolve_backend(kernel, topology=topology, rounds=rounds)
    else:
        backend = ShardedBackend(
            shards, base=kernel, memory_budget_bytes=budget_bytes
        )
    try:
        # Warm-up: spawns the worker pool and ships the shard plan, so
        # the timings below measure steady-state execution, not setup.
        backend.run_schedule(topology, np.zeros((n, 1), dtype=bool))
        heard, schedule_timings = timed(
            lambda: backend.run_schedule(topology, schedule), repeats
        )
        flood, flood_timings = timed(
            lambda: flood_broadcast(backend, topology, flood_rounds), repeats
        )
        bit_identical = bool(
            np.array_equal(heard, reference_heard)
            and np.array_equal(flood, reference_flood)
        )
        if not bit_identical:
            raise SystemExit(
                f"FATAL: shards={shards} diverged from the single-process "
                "reference — refusing to report throughput for wrong bits"
            )
        workers = (
            backend.worker_stats() if isinstance(backend, ShardedBackend) else []
        )
        schedule_median = statistics.median(schedule_timings)
        return {
            "shards": shards,
            "schedule_s": summarize(schedule_timings),
            "flood_s": summarize(flood_timings),
            "node_rounds_per_s": n * rounds / schedule_median,
            "bit_identical": bit_identical,
            "workers": [
                {
                    "rank": entry["rank"],
                    "peak_rss_bytes": entry["peak_rss"],
                    "local_nodes": entry["local_nodes"],
                    "halo_nodes": entry["halo_nodes"],
                }
                for entry in workers
            ],
            "peak_worker_rss_bytes": max(
                (entry["peak_rss"] for entry in workers), default=None
            ),
        }
    finally:
        if isinstance(backend, ShardedBackend):
            backend.close()


def main(argv=None) -> int:
    """Entry point; writes the JSON document and prints a summary table."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument(
        "--family",
        default="expander",
        help="zoo family for the benchmark graph (expander, powerlaw, ...)",
    )
    parser.add_argument("--rounds", type=int, default=64)
    parser.add_argument(
        "--shards",
        default="1,2,4",
        help="comma-separated shard counts to measure (1 = single-process)",
    )
    parser.add_argument(
        "--budget-mb",
        type=int,
        default=16384,
        help="per-worker resident-set budget in MB (0 disables the guard)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI preset: n=20000, rounds=32, shards 1,2, one repeat",
    )
    parser.add_argument("--output", default="BENCH_sharded.json")
    args = parser.parse_args(argv)

    if args.quick:
        args.n = min(args.n, 20_000)
        args.rounds = min(args.rounds, 32)
        args.shards = "1,2"
        args.repeats = 1
    shard_counts = [int(part) for part in args.shards.split(",") if part]
    budget_bytes = args.budget_mb << 20 if args.budget_mb else None

    print(f"building {args.family} n={args.n} ...", flush=True)
    topology = build_topology(args.family, args.n, args.seed)
    schedule = make_schedule(topology, args.rounds, args.seed)
    flood_cap = 4 * args.rounds + 64

    # The single-process reference defines the bits every shard count
    # must reproduce exactly (and the throughput baseline).
    reference_backend = resolve_backend(
        "bitpacked", topology=topology, rounds=args.rounds
    )
    reference_heard = reference_backend.run_schedule(topology, schedule)
    reference_flood = flood_broadcast(reference_backend, topology, flood_cap)

    sections = [
        measure_shard_count(
            topology,
            schedule,
            reference_heard,
            reference_flood,
            shards,
            "bitpacked",
            budget_bytes,
            args.repeats,
            flood_cap,
        )
        for shards in shard_counts
    ]

    baseline = sections[0]["schedule_s"]["median"]
    document = {
        "benchmark": "sharded_engine",
        "config": {
            "n": args.n,
            "family": args.family,
            "rounds": args.rounds,
            "shards": shard_counts,
            "budget_mb": args.budget_mb,
            "repeats": args.repeats,
            "seed": args.seed,
            "quick": args.quick,
            "edges": topology.num_edges,
        },
        "platform": host_metadata(),
        "results": sections,
        "bit_identical": all(section["bit_identical"] for section in sections),
    }
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")

    print(
        f"family={args.family} n={args.n} rounds={args.rounds} "
        f"edges={topology.num_edges} budget={args.budget_mb}MB/worker"
    )
    for section in sections:
        peak = section["peak_worker_rss_bytes"]
        peak_label = f"{peak / (1 << 20):7.0f} MB" if peak else "   (n/a)  "
        print(
            f"  shards={section['shards']}: schedule "
            f"{section['schedule_s']['median']:7.2f}s "
            f"({section['node_rounds_per_s']:.2e} node-rounds/s, "
            f"{baseline / section['schedule_s']['median']:4.2f}x)  "
            f"flood {section['flood_s']['median']:7.2f}s  "
            f"peak worker RSS {peak_label}  bit-identical"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

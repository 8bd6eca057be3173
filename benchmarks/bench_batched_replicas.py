"""Replica-throughput benchmark: BatchedSession vs the per-seed path.

Measures replica batching end to end: executing ``R`` seed-replicas of
one sweep cell through a single
:class:`~repro.core.round_simulator.BatchedSession` (replica-batched
backend calls) versus the per-seed path — graph, topology and session
built and run once per seed, the shape of the unbatched sweep engine.
Every session decodes through the same exact vectorised kernels, so the
ratio isolates what batching shares: one graph build and one backend
call per phase for all replicas.  Both paths produce bit-identical
outcomes — verified inline before the numbers are reported.

A kernel-level section times the raw backend entry points
(``run_schedule_batch`` vs a ``run_schedule`` loop) on the same
schedule shapes, isolating the batched carrier-sense from the batched
decode.

Usage::

    PYTHONPATH=src python benchmarks/bench_batched_replicas.py            # full
    PYTHONPATH=src python benchmarks/bench_batched_replicas.py --quick    # CI smoke

Writes ``BENCH_batched_replicas.json`` (see ``--output``) so CI can
accumulate the perf trajectory, and exits non-zero if the configured
speedup target is missed (``--target 0`` disables the gate; the CI
smoke job runs with the gate off, since shared runners time noisily).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from conftest import host_metadata
from repro.core.parameters import SimulationParameters
from repro.core.round_simulator import BatchedSession, BroadcastSession
from repro.engine import get_backend
from repro.graphs import Topology, random_regular_graph
from repro.rng import derive_rng, derive_seed, random_bits


def outcomes_equal(a, b) -> bool:
    """Field-by-field RoundOutcome equality (the bit-identity check)."""
    return (
        a.decoded == b.decoded
        and np.array_equal(a.per_node_success, b.per_node_success)
        and a.success == b.success
        and a.beep_rounds_used == b.beep_rounds_used
        and a.phase1_errors == b.phase1_errors
        and a.phase2_errors == b.phase2_errors
        and a.r_collision == b.r_collision
        and a.accepted_sets == b.accepted_sets
    )


def replica_messages(seed: int, n: int, rounds: int, message_bits: int):
    """The per-replica message stream, identical for both execution paths."""
    rng = derive_rng(seed, "bench-messages")
    return [
        [random_bits(rng, message_bits) for _ in range(n)]
        for _ in range(rounds)
    ]


def build_topology(n: int, degree: int) -> Topology:
    """The cell's graph: a random regular graph, seed-fixed per config."""
    return Topology(random_regular_graph(n, degree, seed=1))


def run_per_seed(n, degree, params, seeds, rounds, backend):
    """The per-seed path: graph + topology + session built per seed."""
    outcomes = []
    for seed in seeds:
        topology = build_topology(n, degree)
        session = BroadcastSession(topology, params, seed, backend=backend)
        stream = replica_messages(seed, n, rounds, params.message_bits)
        outcomes.append([session.run_round(messages) for messages in stream])
    return outcomes


def run_batched(n, degree, params, seeds, rounds, backend):
    """The batched path: one graph, one BatchedSession over every replica."""
    topology = build_topology(n, degree)
    session = BatchedSession(topology, params, seeds, backend=backend)
    streams = [
        replica_messages(seed, n, rounds, params.message_bits)
        for seed in seeds
    ]
    per_round = [
        [streams[r][t] for r in range(len(seeds))] for t in range(rounds)
    ]
    outcomes_by_round = session.run_many(per_round)
    return [
        [outcomes_by_round[t][r] for t in range(rounds)]
        for r in range(len(seeds))
    ]


def best_of(fn, repeats):
    """Best wall-clock of ``repeats`` calls (shared runners time noisily)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times), statistics.median(times)


def kernel_section(topology, params, replicas, backend_name, repeats):
    """Raw backend timing: run_schedule_batch vs a run_schedule loop.

    Measured at two shapes: a short 64-round schedule (the word-sized
    regime where batching amortises per-call overhead) and the config's
    full phase length ``b`` (where both paths stream the same bytes and
    memory bandwidth dominates).
    """
    backend = get_backend(backend_name)
    n = topology.num_nodes
    rng = np.random.default_rng(0)
    shapes = {}
    for label, rounds in (("word", 64), ("phase", params.beep_code_length)):
        schedules = rng.random((replicas, n, rounds)) < 0.2
        loop_s, _ = best_of(
            lambda: [
                backend.run_schedule(topology, schedules[r])
                for r in range(replicas)
            ],
            repeats,
        )
        batch_s, _ = best_of(
            lambda: backend.run_schedule_batch(topology, schedules), repeats
        )
        shapes[label] = {
            "schedule_rounds": rounds,
            "loop_s": loop_s,
            "batched_s": batch_s,
            "speedup": loop_s / batch_s if batch_s else float("inf"),
        }
    return shapes


def main(argv=None) -> int:
    """Run the benchmark and write its JSON document; 0 = target met."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256, help="nodes (default 256)")
    parser.add_argument(
        "--replicas", type=int, default=32, help="seed-replicas R (default 32)"
    )
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="simulated Broadcast CONGEST rounds per replica (default 2)",
    )
    parser.add_argument(
        "--degree", type=int, default=8, help="regular-graph degree (default 8)"
    )
    parser.add_argument(
        "--eps", type=float, default=0.02, help="channel noise rate (default 0.02)"
    )
    parser.add_argument(
        "--backend", default="bitpacked", help="execution backend (default bitpacked)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats; best-of is reported (default 3)",
    )
    parser.add_argument(
        "--target", type=float, default=0.0,
        help="required end-to-end speedup (exit 1 below it; 0 = report only)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: 1 round, 1 repeat, bit-identity on 2 replicas",
    )
    parser.add_argument(
        "--output", default="BENCH_batched_replicas.json",
        help="JSON result path (default BENCH_batched_replicas.json)",
    )
    args = parser.parse_args(argv)
    rounds = 1 if args.quick else args.rounds
    repeats = 1 if args.quick else args.repeats

    params = SimulationParameters.for_network(
        args.n, args.degree, eps=args.eps
    )
    seeds = [derive_seed(0, "bench-replica", r) for r in range(args.replicas)]

    # Bit-identity first (on a small replica subset under --quick): the
    # speedup below is only meaningful if the outputs are equal.
    check_seeds = seeds[:2] if args.quick else seeds
    reference = run_per_seed(args.n, args.degree, params, check_seeds, 1, args.backend)
    batched = run_batched(args.n, args.degree, params, check_seeds, 1, args.backend)
    for replica in range(len(check_seeds)):
        if not outcomes_equal(reference[replica][0], batched[replica][0]):
            print("FATAL: batched outcome differs from per-seed outcome")
            return 1

    # Interleave the two paths' repeats so host-load noise hits both
    # sides alike; report the medians' ratio.
    loop_times, batch_times = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        run_per_seed(args.n, args.degree, params, seeds, rounds, args.backend)
        loop_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        run_batched(args.n, args.degree, params, seeds, rounds, args.backend)
        batch_times.append(time.perf_counter() - started)
    loop_s, loop_median = min(loop_times), statistics.median(loop_times)
    batch_s, batch_median = min(batch_times), statistics.median(batch_times)
    replica_rounds = args.replicas * rounds
    speedup = loop_median / batch_median if batch_median else float("inf")
    topology = build_topology(args.n, args.degree)

    document = {
        "benchmark": "batched_replicas",
        "config": {
            "n": args.n,
            "replicas": args.replicas,
            "rounds": rounds,
            "degree": args.degree,
            "eps": args.eps,
            "backend": args.backend,
            "quick": args.quick,
            "beep_rounds_per_phase": params.beep_code_length,
        },
        "platform": host_metadata(),
        "per_seed": {
            "elapsed_s": loop_s,
            "median_s": loop_median,
            "replica_rounds_per_s": replica_rounds / loop_s,
        },
        "batched": {
            "elapsed_s": batch_s,
            "median_s": batch_median,
            "replica_rounds_per_s": replica_rounds / batch_s,
        },
        "speedup": speedup,
        "kernel": kernel_section(
            topology, params, args.replicas, args.backend, repeats
        ),
        "bit_identical": True,
    }
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")

    print(
        f"n={args.n} R={args.replicas} rounds={rounds} backend={args.backend} "
        f"eps={args.eps}"
    )
    print(
        f"  per-seed loop : {loop_median:8.2f}s median  "
        f"({replica_rounds / loop_median:8.1f} replica-rounds/s)"
    )
    print(
        f"  batched       : {batch_median:8.2f}s median  "
        f"({replica_rounds / batch_median:8.1f} replica-rounds/s)"
    )
    print(f"  speedup       : {speedup:8.2f}x  (target {args.target:g}x)")
    for label, kernel in document["kernel"].items():
        print(
            f"  kernel[{label}] : {kernel['speedup']:8.2f}x  "
            f"(run_schedule_batch vs loop, {kernel['schedule_rounds']} rounds)"
        )
    print(f"wrote {args.output}")
    if args.target and speedup < args.target:
        print(f"FAIL: speedup {speedup:.2f}x below target {args.target:g}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Noise-scenario throughput benchmark: the cost of heterogeneity.

Times the scenario layer of ``repro.beeping.noise`` end to end: raw
``flip_block`` generation for each windowed channel (Bernoulli,
heterogeneous zone, adversarial), full ``run_schedule`` execution under
each channel on both schedule kernels, and the dynamic-topology
wrapper's epoch-masking overhead against the equivalent static run.
Before any number is reported, every channel's heard matrix is checked
bit-identical between the dense and bit-packed kernels — the scenario
layer's core invariant — so a broken stream can never masquerade as a
fast one.

Usage::

    PYTHONPATH=src python benchmarks/bench_noise_models.py            # full
    PYTHONPATH=src python benchmarks/bench_noise_models.py --quick    # CI smoke

Writes ``BENCH_noise_models.json`` (see ``--output``) so CI accumulates
the perf trajectory alongside the other ``BENCH_*.json`` documents.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from conftest import host_metadata
from repro.beeping.batch import run_schedule
from repro.beeping.noise import DynamicTopology, make_noise_model
from repro.engine.bitpacked import BitpackedBackend
from repro.engine.dense import DenseBackend
from repro.graphs import Topology
from repro.graphs.generators import random_regular_graph

#: The scenario channels under test, as (label, noise-model name) pairs.
MODELS = (
    ("bernoulli", "bernoulli"),
    ("zone", "zone:0.25"),
    ("adversarial", "adversarial"),
)

#: The executor's two kernels, timed directly so each is measured at
#: every schedule size.
KERNELS = {"dense": DenseBackend(), "bitpacked": BitpackedBackend()}


def best_of(fn, repeats: int) -> "tuple[float, float]":
    """Best and median wall-clock of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times), statistics.median(times)


def flip_block_section(n: int, rounds: int, eps: float, repeats: int) -> dict:
    """Raw flip-stream generation throughput per channel, in bits/s."""
    section = {}
    for label, name in MODELS:
        channel = make_noise_model(name, eps, 7, n)
        # Window-straddling start so the timing covers two Philox windows.
        start = 4096 - rounds // 2

        def generate() -> None:
            channel._window_cache.clear()
            channel.flip_block(start, rounds, n)

        best, median = best_of(generate, repeats)
        section[label] = {
            "best_s": best,
            "median_s": median,
            "bits_per_s": (n * rounds) / best if best else float("inf"),
        }
    return section


def schedule_section(
    topology: Topology, rounds: int, eps: float, repeats: int
) -> dict:
    """Full schedule execution per channel on both kernels (+ identity)."""
    n = topology.num_nodes
    schedule = np.random.default_rng(0).random((n, rounds)) < 0.2
    section = {}
    for label, name in MODELS:
        channel = make_noise_model(name, eps, 7, n)
        heard = {}
        timing = {}
        for kernel_name, kernel in KERNELS.items():
            heard[kernel_name] = kernel.run_schedule(
                topology, schedule, channel, 4000
            )
            best, _ = best_of(
                lambda kernel=kernel: kernel.run_schedule(
                    topology, schedule, channel, 4000
                ),
                repeats,
            )
            timing[kernel_name] = best
        if not np.array_equal(heard["dense"], heard["bitpacked"]):
            raise SystemExit(
                f"FATAL: {label} channel not bit-identical across kernels"
            )
        section[label] = {
            "dense_s": timing["dense"],
            "bitpacked_s": timing["bitpacked"],
            "bit_identical": True,
        }
    return section


def churn_section(
    topology: Topology, rounds: int, eps: float, repeats: int
) -> dict:
    """Dynamic-topology overhead: epoch-masked vs static execution."""
    n = topology.num_nodes
    schedule = np.random.default_rng(1).random((n, rounds)) < 0.2
    channel = make_noise_model("bernoulli", eps, 7, n)
    static_best, _ = best_of(
        lambda: run_schedule(topology, schedule, channel, 0),
        repeats,
    )
    section = {"static_s": static_best}
    for period in (64, 256):
        dynamic = DynamicTopology(
            topology, period=period, churn=0.1, edge_failure=0.05, seed=9
        )

        def run_dynamic(dynamic=dynamic) -> None:
            dynamic._epoch_cache.clear()
            run_schedule(dynamic, schedule, channel, 0)

        best, _ = best_of(run_dynamic, repeats)
        section[f"period_{period}"] = {
            "dynamic_s": best,
            "overhead_x": best / static_best if static_best else float("inf"),
        }
    return section


def main(argv=None) -> int:
    """Run every section and write the JSON document; always 0 on success."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=512, help="nodes (default 512)")
    parser.add_argument(
        "--rounds", type=int, default=2048,
        help="schedule rounds per execution (default 2048)",
    )
    parser.add_argument(
        "--degree", type=int, default=8, help="regular-graph degree (default 8)"
    )
    parser.add_argument(
        "--eps", type=float, default=0.05, help="noise budget (default 0.05)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats; best-of is reported (default 3)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke preset: n=128, 512 rounds, 1 repeat",
    )
    parser.add_argument(
        "--output", default="BENCH_noise_models.json",
        help="JSON result path (default BENCH_noise_models.json)",
    )
    args = parser.parse_args(argv)
    n = 128 if args.quick else args.n
    rounds = 512 if args.quick else args.rounds
    repeats = 1 if args.quick else args.repeats

    topology = Topology(random_regular_graph(n, args.degree, seed=1))
    document = {
        "benchmark": "noise_models",
        "config": {
            "n": n,
            "rounds": rounds,
            "degree": args.degree,
            "eps": args.eps,
            "repeats": repeats,
            "quick": args.quick,
        },
        "host": host_metadata(),
        "flip_block": flip_block_section(n, rounds, args.eps, repeats),
        "run_schedule": schedule_section(topology, rounds, args.eps, repeats),
        "churn": churn_section(topology, rounds, args.eps, repeats),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    for label, stats in document["run_schedule"].items():
        print(
            f"{label:12s} dense {stats['dense_s'] * 1e3:8.2f} ms   "
            f"bitpacked {stats['bitpacked_s'] * 1e3:8.2f} ms   bit-identical"
        )
    static = document["churn"]["static_s"]
    for period in (64, 256):
        entry = document["churn"][f"period_{period}"]
        print(
            f"churn p={period:<4d} {entry['dynamic_s'] * 1e3:8.2f} ms "
            f"({entry['overhead_x']:.2f}x static {static * 1e3:.2f} ms)"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

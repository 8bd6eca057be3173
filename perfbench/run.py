"""Benchmark of the simulated Broadcast CONGEST round (Algorithm 1, Theorem 11).

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One invocation runs one workload in a fresh child process, checks its
outputs and prints, as the last stdout line, one JSON object with the keys
correct, attempted, failed and metrics.  Run the workloads one after the
other, never two at once.  Each run's full record (host diagnostics, unit
digests and times) is written to perfbench/out/.

Workloads (all closed loops with one client: a unit starts when the
previous one ends; default backend resolution, which picks bitpacked):
  batched_noisy    One BatchedSession.run_round on a random 8-regular graph,
                   n=512, eps=0.02, R=16 seed-replicas, b=5184; every node
                   sends a random B-bit message.  The headline round: plan
                   and vectorised decode, flip generation, codeword
                   derivation and carrier sense all weigh in.
  matching_beeps   One full Algorithm 3 maximal matching
                   (VectorizedMaximalMatching) through BeepSimulator on a
                   fresh random 8-regular graph, n=128, eps=0.02, b=21312,
                   13-17 simulated rounds; check_matching checks it.  The
                   Theorem 21 application and the only standalone
                   BroadcastSession: reference decoders, no replica
                   batching, recurring messages that hit the code caches.
  sweep_noiseless  One repro.sweeps.run pass, jobs=1, no cache: expander
                   (degree 3), torus, hypercube, caterpillar (legs 2),
                   powerlaw (attachment 2), gnp (p 0.08) x n in {32,64,128}
                   x eps=0 x 4 seeds x 4 rounds = 72 points.  Noiseless, so
                   the control for any flip change; many small points, so
                   codeword derivation and orchestration weigh most.

End-to-end metrics (--trace 0; always from an untraced run):
  bc_rounds_per_s  1/s    higher  simulated rounds in the timed units / their
                                  wall time at nominal host speed (each
                                  replica's and each sweep point's round
                                  counts once)
  setup_s          s      lower   median of three set-ups per run, each
                                  from its first call into repro: graph,
                                  parameter and session construction plus
                                  one untimed warm-up unit at inputs no timed
                                  unit uses (interpreter start, imports and
                                  input generation are excluded), in wall
                                  time at nominal host speed; the timed
                                  units run on the last set-up
  peak_rss_mb      MB     lower   ru_maxrss of the workload's own process
  success_ratio    ratio  higher  share of timed rounds in which every node
                                  decoded every neighbour message exactly

Nominal host speed: on a shared host the same work takes up to twice as
long from one minute to the next, and CPU time tracks wall time.  So a
fixed reference computation (hostspeed.py, no repro code) runs before,
between and after the set-ups, and again between and after the timed
units; each phase's wall time is multiplied by NOMINAL_S / (median probe
time of that phase).  The record keeps the raw wall times, the probes and
the unscaled figures ("wall_clock").

Per-layer metrics (--trace 1): calls and self time (span time minus child
spans) per layer of the timed units, from spans recorded around the public
entry points of repro, wrapped from outside where their callers look them
up; set-up spans sit under their own root and are left out.  Also
codes.beep_cache.hit_ratio, beeping.noise.flip_bits, engine.schedule_bits,
the round outcome counts, sweeps.replicas_per_session,
trace.unattributed_s (timed wall time no span covers) and
trace.overhead_ratio (traced timed time / untraced - 1, both at nominal
host speed; a traced run makes an untraced child run of the same units
first).  The layer self
times plus trace.unattributed_s add up to the traced timed wall time; the
run is reported incorrect if they do not, or if tracing changed a digest.
The spans are written to perfbench/out/<workload>-seed<N>.trace.json as
Chrome trace events (open it in Perfetto).

Which end-to-end metric each layer metric should move, and where (self
time as a share of the timed units, measured at --seed 0; after "|" the
workloads where the layer does almost no work, so nothing should move):
  beeping.noise.flip_block.self_s        bc_rounds_per_s
        batched_noisy 31%, matching_beeps 25%  | sweep_noiseless 0%
  core.decoder.phase{1,2}_decode.self_s  bc_rounds_per_s
        matching_beeps 65%                     | batched_noisy, sweep_noiseless
  core.round_simulator.run_round.self_s  bc_rounds_per_s
        batched_noisy 49%, sweep_noiseless 48% | matching_beeps 3%
  codes.*_encode.self_s, rng.derive_rng.self_s  bc_rounds_per_s, setup_s
        sweep_noiseless 38%, batched_noisy 15% | matching_beeps 4%
  engine.run_schedule.self_s             bc_rounds_per_s
        at most 5% anywhere: a kernel-only change cannot clear a bound
  graphs.build.self_s, core.round_simulator.session_init.self_s, sweeps.*
        bc_rounds_per_s on sweep_noiseless (10%), setup_s elsewhere
                                               | batched_noisy timed units
  core.transpiler.run_broadcast_congest.self_s, algorithms.matching.self_s
        bc_rounds_per_s on matching_beeps (<1%) | the other two

Steadiness rules:
  fixed work     the number of timed units is --seconds divided by the
                 workload's nominal unit time on the reference host (a
                 constant), and every unit's inputs derive from --seed, so
                 success_ratio and the digests repeat exactly for a seed;
                 nothing is time-boxed
  totals         throughput is taken over the whole fixed sequence of
                 units, never as a median of single rounds (a batched
                 round opens 2 or 3 fresh noise windows depending on its
                 offset, so single rounds are not comparable samples)
  one thread     OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
                 are 1 and PYTHONHASHSEED is fixed before numpy is
                 imported: the single-threaded program is measured
  fresh process  every run is a new child process, one at a time, so
                 peak_rss_mb belongs to one workload and no cache carries
                 over; the record keeps nproc, load average, steal time
                 and per-unit CPU time so an outlier can be traced to the
                 host
  host speed     times are rescaled to nominal host speed (above)

Outputs are checked: a unit fails if it raises, if check_matching rejects
its matching, or, at the pinned seed (--seed 0), if its digest differs
from perfbench/pins.json.  At other seeds the digests are printed so two
versions of the program can still be compared.  After a change that is
meant to alter the simulated streams, re-pin: run each workload with
--seed 0 --seconds 60 and copy the printed digests into pins.json.

Out of scope: engine.sharded and the experiments.api process fan-out (on
two vCPUs the workers compete with the coordinator, so a run would measure
the scheduler), the frozen service layer, and engine.native (auto never
picks it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
OUT = HERE / "out"
PINS = HERE / "pins.json"

#: Nominal wall time of one unit on the reference host (2 vCPUs, one BLAS
#: thread).  A run times round(--seconds / this) units, so its work is
#: fixed by the arguments and never by the clock.
UNIT_SECONDS = {
    "batched_noisy": 4.4,
    "matching_beeps": 4.0,
    "sweep_noiseless": 4.0,
}

#: Timed units of a smoke run (tests only).
SMOKE_UNITS = 2

#: Environment every workload process starts with.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Each end-to-end metric with its unit, in report order.
END_TO_END_UNITS = {
    "bc_rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

#: A run must end within this many seconds, children included.
DEADLINE_S = 170.0

#: Allowed gap between the traced wall time and its layer self times plus
#: the unattributed time (float rounding over many spans).
_TRACE_TOLERANCE_S = 1e-6


def run_child(
    workload: str,
    seed: int,
    units: int,
    size: str,
    deadline: float,
    trace_file: "Path | None" = None,
) -> dict:
    """Run ``worker.py`` in a fresh process with the pinned environment."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--units",
        str(units),
        "--size",
        size,
    ]
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, **PINNED_ENV},
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def host_snapshot() -> dict:
    """Load average and the aggregate ``/proc/stat`` CPU counters now."""
    snapshot: dict = {"loadavg": list(os.getloadavg())}
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        snapshot["cpu_ticks"] = [int(value) for value in fields[1:]]
    except OSError:
        snapshot["cpu_ticks"] = None
    return snapshot


def host_diagnostics(before: dict, after: dict) -> dict:
    """What the host looked like over the run, to explain an outlier."""
    versions = {}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    diagnostics = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": PINNED_ENV,
        "versions": versions,
        "python": sys.version.split()[0],
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
    }
    if before["cpu_ticks"] and after["cpu_ticks"]:
        # user nice system idle iowait irq softirq steal ...
        delta = [b - a for a, b in zip(before["cpu_ticks"], after["cpu_ticks"])]
        ticks = os.sysconf("SC_CLK_TCK")
        busy = delta[0] + delta[1] + delta[2]
        diagnostics["steal_s"] = delta[7] / ticks
        diagnostics["busy_s"] = busy / ticks
        diagnostics["steal_share"] = delta[7] / sum(delta) if sum(delta) else 0.0
    return diagnostics


def unit_failures(units: "list[dict]", pins: "list[str] | None") -> dict[int, str]:
    """Why each failed unit failed: it raised, its output was wrong, or its
    digest differs from the pin for its index."""
    failures = {}
    for index, unit in enumerate(units):
        if unit["problem"] is not None:
            failures[index] = unit["problem"].strip()
        elif pins is not None and index < len(pins) and unit["digest"] != pins[index]:
            failures[index] = (
                f"digest {unit['digest'][:16]} differs from pin {pins[index][:16]}"
            )
    return failures


def end_to_end(record: dict) -> dict:
    """The end-to-end metrics of one untraced record, at nominal host speed."""
    units = record["units"]
    rounds = sum(unit["rounds"] for unit in units)
    successes = sum(unit["successes"] for unit in units)
    return {
        "bc_rounds_per_s": rounds / record["timed_s"],
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "success_ratio": successes / rounds if rounds else 0.0,
    }


def wall_clock(record: dict) -> dict:
    """Throughput and set-up time as the wall clock read them, not rescaled."""
    units = record["units"]
    return {
        "bc_rounds_per_s": sum(unit["rounds"] for unit in units)
        / sum(unit["seconds"] for unit in units),
        "setup_s": statistics.median(record["setups_s"]),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """The per-layer metrics of a traced record, plus the tracing overhead."""
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["timed_s"] / untraced["timed_s"] - 1.0
    return metrics


def trace_gap(traced: dict) -> float:
    """Traced timed wall time minus layer self times and unattributed time."""
    layers = traced["layers"]
    covered = sum(
        value for name, value in layers.items() if name.endswith(".self_s")
    )
    return traced["traced_s"] - covered - layers["trace.unattributed_s"]


def load_pins(workload: str, seed: int, size: str) -> "list[str] | None":
    """The pinned unit digests of ``workload``, if the run is at the pinned
    seed and full size."""
    if size != "full" or not PINS.exists():
        return None
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    if seed != pins["seed"]:
        return None
    return pins["digests"].get(workload)


def default_seconds() -> int:
    """``run_seconds`` from BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return int(declared["run_seconds"])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(UNIT_SECONDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, two units (tests)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if seconds < 1:
        parser.error("--seconds must be >= 1")
    size = "smoke" if args.smoke else "full"
    units = (
        SMOKE_UNITS
        if args.smoke
        else max(1, round(seconds / UNIT_SECONDS[args.workload]))
    )
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    before = host_snapshot()
    try:
        record = run_child(args.workload, args.seed, units, size, deadline)
        traced = None
        if args.trace:
            trace_file = OUT / f"{stem}.trace.json"
            traced = run_child(
                args.workload, args.seed, units, size, deadline, trace_file
            )
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as error:
        print(f"{args.workload}: workload process failed ({error})", file=sys.stderr)
        return 1
    host = host_diagnostics(before, host_snapshot())

    pins = load_pins(args.workload, args.seed, size)
    failures = unit_failures(record["units"], pins)
    digests = [unit["digest"] for unit in record["units"]]
    problems = []
    if traced is not None:
        for index, reason in unit_failures(traced["units"], pins).items():
            failures.setdefault(index, f"traced: {reason}")
        for index, unit in enumerate(traced["units"]):
            if unit["digest"] != digests[index]:
                failures.setdefault(index, "tracing changed its digest")
        gap = trace_gap(traced)
        if abs(gap) > _TRACE_TOLERANCE_S:
            problems.append(f"layer self times miss the traced wall time by {gap} s")
        metrics = per_layer(traced, record)
        from perfbench.seams import PER_LAYER_UNITS as units_of
    else:
        metrics = end_to_end(record)
        units_of = END_TO_END_UNITS
    correct = not failures and not problems
    report = {
        "correct": correct,
        "attempted": len(record["units"]),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units_of.items()
        },
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": seconds,
                "units": units,
                "size": size,
                "host": host,
                "wall_clock": wall_clock(record),
                "failures": {str(index): reason for index, reason in failures.items()},
                "problems": problems,
                "untraced": record,
                "traced": traced,
                "report": report,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    for index, reason in sorted(failures.items()):
        print(f"FAILED unit {index}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"digests {args.workload} seed={args.seed}: {' '.join(map(str, digests))}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    sys.exit(main())

"""Run one workload once, in this process, and print its raw record as JSON.

``perfbench/run.py`` starts this script in a fresh interpreter per run, with
the thread and hash-seed environment already pinned, so numpy sees one
BLAS thread from its first import.  The record's last stdout line is a JSON
object: the wall time of every set-up, per timed unit its wall and CPU
time, digest, rounds, successes and problem (``null`` when the output
checked out), the host speed probes around the set-ups and around the
units, the median set-up time and the total timed time rescaled to nominal
host speed by them (see ``hostspeed.py``), and the peak RSS.  With
``--trace-file`` the seams are wrapped, the record gains the per-layer
metrics of the timed units, and the spans are written to that file as
Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _no_span(name: str) -> nullcontext:
    return nullcontext()


def measure(
    name: str,
    seed: int,
    units: int,
    size: str = "full",
    trace_file: "str | None" = None,
) -> dict:
    """Prepare inputs, set up (each time with a warm-up unit), time ``units`` units."""
    from perfbench.hostspeed import probe, rescale
    from perfbench.workloads import WARMUPS, make_workload

    workload = make_workload(name, size)
    workload.prepare(seed, units)
    # Imports are not set-up work: load every module the workloads and
    # the seams touch before the set-up clock starts.
    import repro.algorithms
    import repro.core.transpiler  # noqa: F401
    import repro.sweeps  # noqa: F401

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"repro was imported from {repro.__file__}, not {ROOT}")

    recorder = None
    restore = None
    span = _no_span
    if trace_file is not None:
        from perfbench.seams import install
        from perfbench.spans import Recorder

        recorder = Recorder()
        restore = install(recorder)
        span = recorder.span
    records = []
    setups = []
    probes = []
    try:
        # Set up several times and keep the last set-up for the timed
        # units; each repetition warms up on inputs of its own.  A host
        # speed probe runs before, between and after the intervals.
        probes.append(probe())
        for warmup in WARMUPS:
            started = time.perf_counter()
            with span("setup"):
                workload.setup(span)
                workload.run(warmup, span)
            setups.append(time.perf_counter() - started)
            probes.append(probe())
        if recorder is not None:
            recorder.phase = "unit"
        for unit in range(units):
            problem = None
            started = time.perf_counter()
            cpu_started = time.process_time()
            try:
                with span("unit"):
                    output = workload.run(unit, span)
            except Exception:
                problem = traceback.format_exc()
            entry = {
                "seconds": time.perf_counter() - started,
                "cpu_seconds": time.process_time() - cpu_started,
                "digest": None,
                "rounds": 0,
                "successes": 0,
            }
            probes.append(probe())
            if problem is None:
                try:
                    result = workload.check(output)
                except Exception:
                    problem = traceback.format_exc()
                else:
                    problem = result.problem
                    entry.update(
                        digest=result.digest,
                        rounds=result.rounds,
                        successes=result.successes,
                    )
            entry["problem"] = problem
            records.append(entry)
    finally:
        if restore is not None:
            restore()
    setup_probes = probes[: len(setups) + 1]
    unit_probes = probes[len(setups) :]
    record = {
        "setup_s": rescale(statistics.median(setups), setup_probes),
        "timed_s": rescale(sum(unit["seconds"] for unit in records), unit_probes),
        "setups_s": setups,
        "setup_probes_s": setup_probes,
        "unit_probes_s": unit_probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": records,
    }
    if recorder is not None:
        from perfbench.seams import layer_metrics
        from perfbench.spans import write_chrome_trace

        record["layers"], record["traced_s"] = layer_metrics(recorder)
        record["spans"] = len(recorder.names)
        write_chrome_trace(recorder, trace_file)
    return record


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.units, args.size, args.trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())

"""Command-line harness over the v2 runner API (:mod:`repro.experiments.api`).

Usage::

    python -m repro.experiments                          # list experiments
    python -m repro.experiments e06 e08                  # run selected (quick)
    python -m repro.experiments all --profile full       # the full (slow) sweeps
    python -m repro.experiments e02 e06 --format json --jobs 2
    python -m repro.experiments --tags matching --format csv --output out/

    python -m repro.experiments sweep --grid grid.toml   # scenario campaigns
    python -m repro.experiments sweep --list-families    # the topology zoo

The harness is a thin formatter: selection, parallelism, caching, and
execution all live in :func:`repro.experiments.api.run` (and, for the
``sweep`` subcommand, :func:`repro.sweeps.run`), which return structured
result objects; ``--format`` only chooses how those results are rendered
(``text`` keeps the classic monospace table layout, streamed per
experiment as in v1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from ..errors import ConfigurationError
from . import api
from .registry import all_specs
from .result import ExperimentResult

__all__ = ["main", "sweep_main"]


def _experiment_id_summary() -> str:
    """Compact range summary of the registered ids, e.g. ``a01..a03, e01..e16``.

    Generated from the registry so the help text can never drift from it.
    """
    groups: dict[str, list[str]] = {}
    for spec in all_specs():
        groups.setdefault(spec.id.rstrip("0123456789"), []).append(spec.id)
    return ", ".join(
        keys[0] if len(keys) == 1 else f"{keys[0]}..{keys[-1]}"
        for keys in groups.values()
    )


def _render(result: "ExperimentResult", output_format: str) -> str:
    """One experiment's output in ``output_format``, trailing newline included.

    The single source of truth for per-result rendering — streamed
    stdout, batch stdout, and ``--output`` files all go through it.
    """
    if output_format == "text":
        return result.render_text() + "\n"
    if output_format == "json":
        return result.to_json() + "\n"
    return result.to_csv()


def _write_output_file(path: Path, content: str) -> None:
    """Write one output artifact, folding I/O failures into the exit-2 path.

    An unwritable ``--output`` destination is a usage error like any
    other, so it must surface as a one-line :class:`ConfigurationError`
    diagnostic, never a traceback.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    except OSError as error:
        raise ConfigurationError(
            f"cannot write output file {path}: {error}"
        ) from None
    print(f"wrote {path}")


def _emit(
    results: "list[ExperimentResult]",
    *,
    output_format: str,
    output_dir: "str | None",
) -> None:
    """Render results to stdout, or to per-experiment files under a dir."""
    if output_dir is not None:
        directory = Path(output_dir)
        suffix = {"text": "txt", "json": "json", "csv": "csv"}[output_format]
        for result in results:
            path = directory / f"{result.experiment_id}.{suffix}"
            _write_output_file(path, _render(result, output_format))
        return
    if output_format == "json":
        # a single valid JSON document needs the whole array
        print(json.dumps([result.to_dict() for result in results], indent=2))
        return
    for result in results:
        sys.stdout.write(_render(result, output_format))


def _sweep_emit(result, *, output_format: str, output_dir: "str | None") -> None:
    """Render a :class:`~repro.sweeps.result.SweepResult` to stdout or files.

    ``--output DIR`` writes all three artifacts (JSON document, long-form
    points CSV, aggregate cells CSV) regardless of ``--format`` — that is
    what the CI sweep job uploads.
    """
    if output_dir is not None:
        directory = Path(output_dir)
        for name, content in (
            ("sweep.json", result.to_json() + "\n"),
            ("sweep_points.csv", result.points_csv()),
            ("sweep_cells.csv", result.cells_csv()),
        ):
            _write_output_file(directory / name, content)
        return
    if output_format == "json":
        print(result.to_json())
    elif output_format == "csv":
        sys.stdout.write(f"# table: sweep / points\n{result.points_csv()}")
        sys.stdout.write(f"# table: sweep / cells\n{result.cells_csv()}")
    else:
        print(result.render_text())


def _list_families() -> int:
    """Print the topology zoo (name, params, description); exit code 0."""
    from ..graphs import topology_families

    print("topology zoo families:")
    for family in topology_families():
        knobs = ", ".join(
            f"{param.name}={param.default}" for param in family.params
        )
        suffix = f"  [{knobs}]" if knobs else ""
        print(f"  {family.name:<12}{suffix}")
        print(f"      {family.description}")
    print("use in grid.toml: topologies = [\"<name>\", ...]; "
          "per-family knobs under [params.<name>]")
    return 0


def _list_workloads() -> int:
    """Print the sweep workload registry (name, description); exit code 0."""
    from ..sweeps import workloads

    print("sweep workloads:")
    for workload in workloads.WORKLOADS.values():
        print(f"  {workload.name:<12}{workload.description}")
    print('use in grid.toml: workloads = ["<name>", ...]')
    return 0


def sweep_main(argv: Sequence[str] | None = None) -> int:
    """The ``sweep`` subcommand: run a grid campaign from a TOML spec.

    Returns a process exit code (0 ok, 2 usage/validation error).  All
    grid validation is eager — an unknown topology family or malformed
    grid key prints a one-line diagnostic listing the known alternatives
    and exits 2 before any simulation starts.
    """
    from .. import sweeps

    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description="Run a declarative topology-zoo sweep campaign",
    )
    parser.add_argument(
        "--grid",
        metavar="TOML",
        default=None,
        help="path to the grid spec (see examples/sweep_grid.toml)",
    )
    parser.add_argument(
        "--list-families",
        action="store_true",
        help="list the topology zoo and exit",
    )
    parser.add_argument(
        "--list-workloads",
        action="store_true",
        help="list the sweep workloads and exit",
    )
    parser.add_argument(
        "--profile",
        default="quick",
        metavar="NAME",
        help="execution profile: quick (default), full (scaled-up rounds), "
        "or a custom label recorded in result metadata",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="simulate grid points in N parallel worker processes",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="on-disk point cache keyed by (point, profile, seed) "
        "and verified against the full grid-point identity before replay",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json", "csv"),
        default="text",
        help="stdout format (default text: the aggregate cell table)",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="write sweep.json + points/cells CSV into DIR instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.list_families:
        return _list_families()
    if args.list_workloads:
        return _list_workloads()
    if args.grid is None:
        parser.error(
            "--grid TOML is required (or --list-families / --list-workloads)"
        )

    def note_progress(message: str) -> None:
        """Per-point completion/cache lines on stderr, data on stdout."""
        print(f"[sweep] {message}", file=sys.stderr)

    try:
        result = sweeps.run(
            args.grid,
            profile=args.profile,
            jobs=args.jobs,
            cache_dir=args.cache,
            progress=note_progress,
        )
        _sweep_emit(
            result, output_format=args.output_format, output_dir=args.output
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def serve_main(argv: Sequence[str] | None = None) -> int:
    """The ``serve`` subcommand: run the HTTP job server until interrupted.

    Boots a :class:`repro.service.JobService` over a dir-backed store:
    ``POST /v1/jobs`` takes the same payload shape as the programmatic
    API, identical submissions are deduplicated onto one execution, and
    results are shared through a content-keyed store (see
    docs/ARCHITECTURE.md "The service layer").  Returns a process exit
    code (0 clean shutdown, 2 usage/validation error).
    """
    from ..service import ServiceConfig, create_server

    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Serve experiments and sweeps as async HTTP jobs",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        metavar="PORT",
        help="TCP port; 0 picks an ephemeral port (default 8765)",
    )
    parser.add_argument(
        "--store-dir",
        required=True,
        metavar="DIR",
        help="job-store root: specs, state, event logs, and the shared "
        "content-keyed result store (created if missing; jobs survive "
        "restarts)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker-pool width: how many jobs execute concurrently "
        "(default 2)",
    )
    parser.add_argument(
        "--inline",
        action="store_true",
        help="execute jobs in server threads instead of spawn worker "
        "processes (debugging only)",
    )
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        """Access/progress lines on stderr, like the sweep progress feed."""
        print(f"[serve] {message}", file=sys.stderr)

    try:
        service = create_server(
            ServiceConfig(
                host=args.host,
                port=args.port,
                store_dir=args.store_dir,
                jobs=args.jobs,
                inline=args.inline,
            ),
            log=log,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"[serve] listening on http://{args.host}:{service.port} "
        f"(store: {args.store_dir}, workers: {args.jobs})",
        file=sys.stderr,
        flush=True,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("[serve] shutting down", file=sys.stderr)
    finally:
        service.shutdown()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (0 ok, 2 usage error).

    ``sweep`` as the first argument dispatches to :func:`sweep_main` and
    ``serve`` to :func:`serve_main`; everything else is the classic
    experiment-selection interface.
    """
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the paper's tables and figures (claim map: "
            "docs/ARCHITECTURE.md)"
        ),
        epilog="Scenario campaigns over the topology zoo: "
        "'%(prog)s sweep --grid grid.toml' (see 'sweep --help').",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids ({_experiment_id_summary()}) or 'all'; "
        "empty lists experiments",
    )
    parser.add_argument(
        "--profile",
        default="quick",
        metavar="NAME",
        help="execution profile: quick (default), full, or a custom label "
        "recorded in result metadata",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments in N parallel worker processes (default 1)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text, the classic monospace tables)",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="write one file per experiment into DIR instead of stdout",
    )
    parser.add_argument(
        "--tags",
        action="append",
        default=None,
        metavar="TAG[,TAG...]",
        help="restrict (or, without ids, select) experiments by spec tags",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="on-disk result cache keyed by (id, profile, seed)",
    )
    args = parser.parse_args(argv)

    tags = (
        [tag for raw in args.tags for tag in raw.split(",") if tag]
        if args.tags
        else None
    )

    if not args.experiments and not tags:
        print("available experiments:")
        for spec in all_specs():
            print(f"  {spec.id}  {spec.title}")
        print("run with: python -m repro.experiments <id>|all [--profile full]")
        return 0

    # text/csv to stdout stream per-experiment as results complete (the
    # v1 behaviour — a long `all --profile full` run shows each table as
    # it finishes); JSON needs the whole array, file output the whole set.
    streaming = args.output is None and args.output_format in ("text", "csv")

    def stream_result(result) -> None:
        """Print one result immediately in the selected format."""
        sys.stdout.write(_render(result, args.output_format))
        sys.stdout.flush()

    def note_cache_activity(message: str) -> None:
        """Flag replayed-vs-executed on stderr so stale hits are visible."""
        print(f"[cache] {message}", file=sys.stderr)

    try:
        results = api.run(
            args.experiments or None,
            profile=args.profile,
            seed=args.seed,
            jobs=args.jobs,
            tags=tags,
            cache_dir=args.cache,
            progress=note_cache_activity if args.cache else None,
            on_result=stream_result if streaming else None,
        )
        if results and not streaming:
            _emit(
                results,
                output_format=args.output_format,
                output_dir=args.output,
            )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not results:
        print(f"error: no experiments match tags {tags}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())

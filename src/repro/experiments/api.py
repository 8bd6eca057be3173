"""Programmatic experiment runner: parallel execution + result cache.

The v2 entry point the CLI is built on, usable directly::

    from repro.experiments import api

    results = api.run(["e02", "e06"], profile="quick", seed=0, jobs=2)
    print(results[0].to_json())

:func:`run` resolves experiment ids (or tag selections) to
:class:`~repro.experiments.spec.ExperimentSpec` objects, executes each
under a :class:`~repro.experiments.context.RunContext` — process-parallel
across experiments when ``jobs > 1`` — and returns
:class:`~repro.experiments.result.ExperimentResult` objects.  With
``cache_dir`` set, results are replayed from / written to an on-disk JSON
cache keyed by ``(id, profile, seed)``.
"""

from __future__ import annotations

import contextlib
import glob
import re
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..engine import mp_context
from ..errors import ConfigurationError
from .registry import all_specs, get_spec
from .result import ExperimentResult

__all__ = ["run", "run_one", "resolve_ids", "cache_path", "load_cached", "write_cache"]


def resolve_ids(
    ids: "Sequence[str] | str | None" = None,
    *,
    tags: Iterable[str] | None = None,
) -> list[str]:
    """Expand a user selection into concrete experiment ids.

    ``ids`` may be a list of ids, the string ``"all"``, or ``None``
    (= all).  An explicit empty list resolves to no experiments — only
    ``None``/``"all"`` mean everything, so a dynamically-built selection
    that matched nothing cannot accidentally trigger a full run.
    ``tags`` further restricts (or, with ``ids`` None, selects)
    experiments carrying at least one of the given tags.  Unknown ids
    raise :class:`ConfigurationError`.
    """
    if isinstance(ids, str):
        ids = [ids]
    if ids is None or any(item.lower() == "all" for item in ids):
        selected = [spec.id for spec in all_specs()]
    else:
        selected = [get_spec(item).id for item in ids]
    if tags:
        wanted = {tag.strip().lower() for tag in tags if tag.strip()}
        selected = [
            experiment_id
            for experiment_id in selected
            if get_spec(experiment_id).matches_tags(wanted)
        ]
    # preserve order, drop duplicates
    seen: set[str] = set()
    return [x for x in selected if not (x in seen or seen.add(x))]


def cache_path(
    cache_dir: "str | Path",
    experiment_id: str,
    *,
    profile: str,
    seed: int,
) -> Path:
    """The cache location for one ``(id, profile, seed)``."""
    safe_profile = re.sub(r"[^A-Za-z0-9_.-]+", "-", profile)
    return Path(cache_dir) / f"{experiment_id}--{safe_profile}--seed{seed}.json"


def load_cached(
    path: Path,
    *,
    experiment_id: str,
    profile: str,
    seed: int,
) -> "ExperimentResult | None":
    """Read a cache entry; anything unreadable or mismatched is a miss.

    Corrupt JSON (e.g. an interrupted write) and old-schema documents
    must not wedge the runner — they are **deleted** and treated as
    misses, so a half-written entry is probed at most once and can never
    take down a long-running server worker that shares the cache.  The
    stored metadata must additionally match the request exactly —
    filename sanitization can collide (two profile labels differing only
    in punctuation map to one file), so the file name alone is not
    trusted; a metadata mismatch is a miss but the file is *kept* (it is
    another request's valid entry, not junk).
    """
    try:
        text = path.read_text()
    except OSError:
        return None
    try:
        result = ExperimentResult.from_json(text)
    except (ValueError, KeyError, TypeError, ConfigurationError):
        try:
            path.unlink()
        except OSError:
            pass
        return None
    if (
        result.experiment_id != experiment_id
        or result.profile != profile
        or result.seed != seed
    ):
        return None
    result.cached = True
    return result


#: The name tail of a cache entry written while names still carried the
#: backend label: ``{stem}--{label}.json``, with a ``-shards<P>`` suffix
#: for sharded runs.  A current name ends in ``--seed<int>.json``, so no
#: current entry matches it.
_LEGACY_SUFFIX = re.compile(r"--(auto|dense|bitpacked)(-shards\d+)?\.json")


def write_cache(path: Path, result: ExperimentResult) -> None:
    """Atomically persist a result (tmp file + rename within the dir).

    The same key's entries under the old backend-labelled names are then
    deleted: nothing reads them any more.  An unusable cache destination
    — the directory path is an existing file, the filesystem is
    read-only, permissions are missing — raises a one-line
    :class:`ConfigurationError`, so the CLI's exit-2 formatter handles
    it like every other bad ``--cache`` argument instead of surfacing a
    raw traceback.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(result.to_json())
        tmp.replace(path)
        for sibling in path.parent.glob(glob.escape(path.stem) + "--*.json"):
            if _LEGACY_SUFFIX.fullmatch(sibling.name[len(path.stem) :]):
                sibling.unlink(missing_ok=True)
    except OSError as error:
        raise ConfigurationError(
            f"cannot write cache entry {path}: {error}"
        ) from None


def run_one(
    experiment_id: str,
    *,
    profile: str = "quick",
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Execute a single experiment in-process and return its result."""
    spec = get_spec(experiment_id)
    ctx = spec.make_context(profile=profile, seed=seed, progress=progress)
    started = time.perf_counter()
    tables = spec.execute(ctx)
    elapsed = time.perf_counter() - started
    return ExperimentResult(
        experiment_id=spec.id,
        title=spec.title,
        claim=spec.claim,
        tags=spec.tags,
        profile=profile,
        seed=seed,
        elapsed=elapsed,
        tables=tables,
    )


#: The message a relay drain thread interprets as "no more messages".
#: A plain string because it crosses the manager-queue boundary, where
#: object identity is not preserved.
_RELAY_STOP = "__repro-progress-relay-stop__"


@contextlib.contextmanager
def _progress_relay(progress: Callable[[str], None]) -> Iterator[object]:
    """A cross-process message queue wired back into ``progress``.

    Progress callbacks are process-local (closures over sockets, UI
    state, open files) and must never be pickled into workers — see
    :meth:`RunContext.__getstate__ <repro.experiments.context.RunContext.
    __getstate__>`.  This seam replaces them across the process boundary:
    it yields a picklable manager-queue proxy whose ``put`` workers use
    as their callback, while a drain thread in *this* process forwards
    every message to the real ``progress``.  The callback is therefore
    invoked from the relay thread, interleaved with any calls the runner
    makes directly.
    """
    manager = mp_context().Manager()
    try:
        relay_queue = manager.Queue()

        def drain() -> None:
            while True:
                message = relay_queue.get()
                if message == _RELAY_STOP:
                    return
                progress(message)

        thread = threading.Thread(
            target=drain, name="repro-progress-relay", daemon=True
        )
        thread.start()
        try:
            yield relay_queue
        finally:
            relay_queue.put(_RELAY_STOP)
            thread.join(timeout=10)
    finally:
        manager.shutdown()


def _run_payload(
    payload: "tuple[str, str, int, object]",
) -> dict:
    """Worker-process entry: run one experiment, return its dict form.

    Results cross the process boundary as plain dicts (JSON-able) so the
    executor never pickles specs, tables, or numpy scalars.  The last
    payload slot is the optional progress-relay queue proxy (see
    :func:`_progress_relay`); its ``put`` becomes the worker-side
    callback, so in-experiment :meth:`RunContext.report` messages reach
    the caller instead of being silently dropped.
    """
    experiment_id, profile, seed, relay_queue = payload
    return run_one(
        experiment_id,
        profile=profile,
        seed=seed,
        progress=relay_queue.put if relay_queue is not None else None,
    ).to_dict()


def run(
    ids: "Sequence[str] | str | None" = None,
    *,
    profile: str = "quick",
    seed: int = 0,
    jobs: int = 1,
    tags: Iterable[str] | None = None,
    cache_dir: "str | Path | None" = None,
    progress: Callable[[str], None] | None = None,
    on_result: Callable[[ExperimentResult], None] | None = None,
) -> list[ExperimentResult]:
    """Run experiments and return structured results, in selection order.

    Parameters
    ----------
    ids:
        Experiment ids, ``"all"``, or ``None`` for every registered
        experiment (optionally narrowed by ``tags``).
    profile:
        ``"quick"``, ``"full"``, or a custom label (recorded verbatim).
    seed:
        Master seed handed to every experiment's context.
    jobs:
        Worker processes; ``1`` runs serially in-process, ``N > 1`` fans
        experiments out over a :class:`ProcessPoolExecutor`.
    tags:
        Restrict the selection to specs carrying at least one tag.
    cache_dir:
        Directory of the on-disk result cache.  Hits (same id, profile,
        seed) are replayed without executing; misses are
        executed then written back (unreadable entries count as misses).
    progress:
        Optional callback receiving one-line status messages, including
        each experiment's :meth:`RunContext.report` output.  The
        callback itself never crosses a process boundary: with
        ``jobs > 1`` worker-side messages travel over a queue-backed
        relay (see :func:`_progress_relay`), so the callback may be
        invoked from the relay thread interleaved with completion
        messages from the calling thread.
    on_result:
        Optional callback invoked with each :class:`ExperimentResult` as
        it completes, in selection order — the CLI streams text output
        through this instead of waiting for the whole batch.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    selected = resolve_ids(ids, tags=tags)

    hits: dict[str, ExperimentResult] = {}
    pending: list[str] = []
    for experiment_id in selected:
        cached = None
        if cache_dir is not None:
            cached = load_cached(
                cache_path(cache_dir, experiment_id, profile=profile, seed=seed),
                experiment_id=experiment_id,
                profile=profile,
                seed=seed,
            )
        if cached is not None:
            hits[experiment_id] = cached
        else:
            pending.append(experiment_id)

    results: dict[str, ExperimentResult] = {}

    def finish(experiment_id: str, result: ExperimentResult) -> None:
        results[experiment_id] = result
        if cache_dir is not None and not result.cached:
            write_cache(
                cache_path(cache_dir, experiment_id, profile=profile, seed=seed),
                result,
            )
        if progress is not None:
            status = (
                "cache hit" if result.cached else f"done in {result.elapsed:.1f}s"
            )
            progress(f"{experiment_id}: {status}")
        if on_result is not None:
            on_result(result)

    if pending and jobs > 1:
        relay: contextlib.AbstractContextManager = contextlib.nullcontext()
        if progress is not None:
            relay = _progress_relay(progress)
        with relay as relay_queue:
            payloads = [(x, profile, seed, relay_queue) for x in pending]
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)), mp_context=mp_context()
            ) as pool:
                fresh = pool.map(_run_payload, payloads)  # yields in order
                for experiment_id in selected:
                    if experiment_id in hits:
                        finish(experiment_id, hits[experiment_id])
                    else:
                        finish(
                            experiment_id,
                            ExperimentResult.from_dict(next(fresh)),
                        )
    else:
        for experiment_id in selected:
            if experiment_id in hits:
                finish(experiment_id, hits[experiment_id])
            else:
                finish(
                    experiment_id,
                    run_one(
                        experiment_id,
                        profile=profile,
                        seed=seed,
                        progress=progress,
                    ),
                )

    return [results[experiment_id] for experiment_id in selected]

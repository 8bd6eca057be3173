"""Job specifications: what a service job runs, validated at submit time.

A :class:`JobSpec` is the normalized form of a ``POST /v1/jobs`` body.
Two kinds exist, mirroring the two programmatic entry points:

``experiment``
    The :func:`repro.experiments.api.run` payload shape — experiment
    ids (or tags), profile, seed.
``sweep``
    The :func:`repro.sweeps.run` payload shape — a grid dict (the
    TOML document form), profile.

Normalization is **eager and lossy on aliases**: ids are resolved
through the registry (tags folded in), grids are validated and expanded
through :class:`~repro.sweeps.grid.GridSpec`.  Everything a job could
reject at execution time is rejected at submit time instead with the
same one-line :class:`~repro.errors.ConfigurationError` the CLI
surfaces, so a queued job can only fail for execution-environment
reasons, never for payload shape.

The normalized payload is also the **identity**: :meth:`JobSpec.
identity_key` hashes exactly the fields that determine the result bytes
— the existing cache identity (resolved ids / executed grid, profile,
seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Mapping

from ..errors import ConfigurationError
from ..experiments import api
from ..experiments.result import ExperimentResult

__all__ = ["JOB_KINDS", "JobFailure", "JobSpec", "execute_spec", "render_csv"]

#: The accepted ``"kind"`` values of a job payload.
JOB_KINDS: tuple[str, ...] = ("experiment", "sweep")

#: Payload keys accepted per kind (beyond ``"kind"`` itself).
_EXPERIMENT_KEYS = ("ids", "tags", "profile", "seed")
_SWEEP_KEYS = ("grid", "profile")


class JobFailure(Exception):
    """A job execution failed, with the original error's type preserved.

    Raised by executors when a worker reports (or suffers) a failure;
    the worker pool folds it into the job's stored error payload so
    clients see the underlying exception type by name — e.g.
    ``ConfigurationError`` — not just an opaque message.
    """

    def __init__(self, type_name: str, message: str) -> None:
        """Record the original exception's type name and message."""
        super().__init__(message)
        self.type_name = type_name
        self.message = message


def _one_line(message: str) -> ConfigurationError:
    """A :class:`ConfigurationError` guaranteed to render on one line."""
    return ConfigurationError(" ".join(str(message).split()))


def _check_keys(payload: Mapping, known: "tuple[str, ...]", kind: str) -> None:
    """Reject unknown payload keys with a one-line diagnostic."""
    unknown = set(payload) - set(known) - {"kind"}
    if unknown:
        raise _one_line(
            f"unknown {kind}-job key(s) "
            f"{', '.join(map(repr, sorted(unknown)))}; known: "
            f"{', '.join(known)}"
        )


def _check_int(value: object, *, what: str, minimum: int) -> int:
    """Validate one integer payload value (bools are not integers here)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _one_line(f"job {what} must be an int, got {value!r}")
    if value < minimum:
        raise _one_line(f"job {what} must be >= {minimum}, got {value}")
    return value


def _check_common(payload: Mapping) -> str:
    """Validate the field shared by both kinds: the profile."""
    profile = payload.get("profile", "quick")
    if not profile or not isinstance(profile, str):
        raise _one_line(f"job profile must be a non-empty string, got {profile!r}")
    return profile


@dataclass(frozen=True)
class JobSpec:
    """One normalized, validated job: kind plus a canonical payload dict.

    Construct through :meth:`normalize` (for raw ``POST`` bodies) or
    :meth:`from_dict` (for payloads already normalized and persisted by
    the store).  The payload is canonical: ids resolved, grid in its
    :meth:`~repro.sweeps.grid.GridSpec.to_dict` form, defaults made
    explicit.  Treat the payload as read-only — identity
    (:meth:`identity_key`) is computed from it.
    """

    kind: str
    payload: dict

    @classmethod
    def normalize(cls, raw: object) -> "JobSpec":
        """Validate a raw submission body into a canonical spec.

        Raises :class:`ConfigurationError` with a one-line diagnostic
        for every malformed shape — the HTTP layer maps that onto a 400
        response, the CLI onto exit code 2.
        """
        if not isinstance(raw, Mapping):
            raise _one_line(f"job payload must be a JSON object, got {raw!r}")
        kind = raw.get("kind")
        if kind not in JOB_KINDS:
            raise _one_line(
                f"job kind must be one of {', '.join(map(repr, JOB_KINDS))}; "
                f"got {kind!r}"
            )
        if kind == "experiment":
            return cls._normalize_experiment(raw)
        return cls._normalize_sweep(raw)

    @classmethod
    def _normalize_experiment(cls, raw: Mapping) -> "JobSpec":
        """Normalize an ``experiment`` payload (the ``api.run`` shape)."""
        _check_keys(raw, _EXPERIMENT_KEYS, "experiment")
        profile = _check_common(raw)
        seed = _check_int(raw.get("seed", 0), what="seed", minimum=0)
        tags = raw.get("tags")
        if tags is not None and (
            isinstance(tags, (str, bytes))
            or not all(isinstance(tag, str) for tag in tags)
        ):
            raise _one_line(f"job tags must be a list of strings, got {tags!r}")
        ids = raw.get("ids")
        if ids is not None and not isinstance(ids, str):
            if not all(isinstance(item, str) for item in ids):
                raise _one_line(
                    f"job ids must be a list of strings or 'all', got {ids!r}"
                )
        resolved = api.resolve_ids(ids, tags=tags)  # unknown ids raise here
        if not resolved:
            raise _one_line(
                f"job selects no experiments (ids={ids!r}, tags={tags!r})"
            )
        payload = {"ids": list(resolved), "profile": profile, "seed": seed}
        return cls(kind="experiment", payload=payload)

    @classmethod
    def _normalize_sweep(cls, raw: Mapping) -> "JobSpec":
        """Normalize a ``sweep`` payload (the ``sweeps.run`` shape)."""
        from ..sweeps.grid import load_grid

        _check_keys(raw, _SWEEP_KEYS, "sweep")
        profile = _check_common(raw)
        grid = raw.get("grid")
        if not isinstance(grid, Mapping):
            raise _one_line(
                f"sweep job requires a 'grid' table (the grid.toml document "
                f"shape), got {grid!r}"
            )
        executed = load_grid(dict(grid)).to_dict()  # full eager validation
        payload = {"grid": executed, "profile": profile}
        return cls(kind="sweep", payload=payload)

    def payload_dict(self) -> dict:
        """The canonical payload as a plain (JSON-able) dict."""
        return json.loads(json.dumps(self.payload))

    def identity_key(self) -> str:
        """The single-flight/result-store key: a digest of the result identity.

        Hashes exactly what determines the result document's bytes — the
        existing cache identity surfaced one level up.  For experiments:
        resolved ids in selection order, profile and seed.  For sweeps:
        the executed grid document (which pins every cell's slug and
        seed) and profile.  Both documents also hash the values of the
        retired settings that every job now runs with — ``"shards": 1``,
        and the backend label ``"auto"`` (``"backends": ["auto"]`` in a
        grid) unless a stored spec carries its own — so every key
        computed while they were settable stays valid.
        """
        payload = self.payload_dict()
        if self.kind == "experiment":
            doc = {
                "kind": self.kind,
                "ids": payload["ids"],
                "profile": payload["profile"],
                "seed": payload["seed"],
                "backend": payload.get("backend") or "auto",
                "shards": 1,
            }
        else:
            payload["grid"]["grid"].setdefault("backends", ["auto"])
            doc = {
                "kind": self.kind,
                "grid": payload["grid"],
                "profile": payload["profile"],
                "shards": 1,
            }
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        """JSON-able dict form (what the store persists as ``spec.json``)."""
        return {"kind": self.kind, "payload": self.payload_dict()}

    @classmethod
    def from_dict(cls, document: Mapping) -> "JobSpec":
        """Rebuild a spec persisted by :meth:`to_dict` (already canonical).

        Specs stored by older versions also carry a ``runtime`` field,
        a ``shards`` field, a ``backend`` field, or several.  Only
        :meth:`identity_key` reads ``backend``: ``runtime`` never entered
        it, every job now runs in one process, and the schedule kernel
        is chosen by size.
        """
        kind = document["kind"]
        if kind not in JOB_KINDS:
            raise _one_line(f"stored job has unknown kind {kind!r}")
        return cls(kind=kind, payload=dict(document["payload"]))


def execute_spec(
    spec: JobSpec,
    *,
    cache_dir: "str | None" = None,
    progress: "Callable[[str], None] | None" = None,
) -> str:
    """Run one job in this process and return its result JSON document.

    The document is **byte-identical** to the programmatic API's own
    serialization: for experiment jobs, the ``--format json`` batch form
    (``json.dumps([r.to_dict() ...], indent=2)`` over
    :func:`repro.experiments.api.run`); for sweep jobs,
    :meth:`repro.sweeps.result.SweepResult.to_json`.  Executions share
    the service's on-disk result cache through ``cache_dir``, so
    repeated identical work replays instead of recomputing.
    """
    payload = spec.payload_dict()
    if spec.kind == "experiment":
        results = api.run(
            list(payload["ids"]),
            profile=payload["profile"],
            seed=payload["seed"],
            jobs=1,
            cache_dir=cache_dir,
            progress=progress,
        )
        return json.dumps([result.to_dict() for result in results], indent=2)
    from .. import sweeps

    result = sweeps.run(
        payload["grid"],
        profile=payload["profile"],
        jobs=1,
        cache_dir=cache_dir,
        progress=progress,
    )
    return result.to_json()


def render_csv(kind: str, document: str) -> str:
    """Re-render a stored result document as the CLI's CSV form.

    Experiment jobs: each result's :meth:`~repro.experiments.result.
    ExperimentResult.to_csv`, concatenated — the streamed ``--format
    csv`` output.  Sweep jobs: the points and cells tables with the
    ``# table:`` comment separators — the sweep CLI's stdout CSV mode.
    """
    if kind == "experiment":
        return "".join(
            ExperimentResult.from_dict(entry).to_csv()
            for entry in json.loads(document)
        )
    from ..sweeps.result import SweepResult

    result = SweepResult.from_json(document)
    return (
        f"# table: sweep / points\n{result.points_csv()}"
        f"# table: sweep / cells\n{result.cells_csv()}"
    )


def worker_entry(spec_document: dict, cache_dir: "str | None", queue) -> None:
    """Subprocess entry point: execute one job, reporting over ``queue``.

    Started through the library's pinned ``spawn`` context (see
    :mod:`repro.engine.mp`) by :class:`~repro.service.app.
    SubprocessExecutor`.  Every outcome is a queue message — ``("progress",
    text)`` during execution, then exactly one of ``("done", document)``
    or ``("failed", {"type", "message"})`` — so the parent never has to
    parse an exit code to learn what happened; a worker that dies without
    a terminal message is reported by the executor as a crash.
    """
    spec = JobSpec.from_dict(spec_document)
    try:
        document = execute_spec(
            spec,
            cache_dir=cache_dir,
            progress=lambda message: queue.put(("progress", message)),
        )
    except BaseException as error:  # report every failure, then exit cleanly
        queue.put(
            ("failed", {"type": type(error).__name__, "message": str(error)})
        )
    else:
        queue.put(("done", document))

"""Declarative experiment specs and the self-registering decorator.

Each experiment module declares itself::

    @experiment(
        id="e06",
        title="Theorem 11: O(Delta log n) overhead",
        claim="Theorem 11",
        tags=("simulation", "overhead"),
    )
    def run(ctx: RunContext) -> list[Table]:
        ...

The decorator wraps the runner in an :class:`ExperimentSpec` and records
it in the process-wide registry that :mod:`repro.experiments.registry`
exposes; :meth:`ExperimentSpec.execute` runs it under a
:class:`RunContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..errors import ConfigurationError
from .context import RunContext
from .table import Table

__all__ = ["ExperimentSpec", "experiment", "registered_spec", "registered_specs"]

#: Process-wide spec registry, keyed by lower-case experiment id.
#: Populated by the :func:`experiment` decorator at module import time;
#: read through :mod:`repro.experiments.registry`.
_REGISTRY: dict[str, "ExperimentSpec"] = {}


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: metadata plus the context-style runner.

    Attributes
    ----------
    id:
        Stable lower-case identifier (``"e01"``..``"e16"``, ``"a01"``...).
    title:
        One-line description shown in listings (conventionally naming the
        paper claim the experiment reproduces).
    claim:
        The paper claim label (``"Theorem 11"``, ``"Lemma 6"``, ...).
    tags:
        Free-form labels for subset selection (``--tags`` / ``api.run``).
    func:
        The underlying runner taking a :class:`RunContext` and returning
        a list of :class:`Table` objects.
    """

    id: str
    title: str
    claim: str = ""
    tags: tuple[str, ...] = ()
    func: Callable[[RunContext], list[Table]] = field(
        default=None, repr=False, compare=False
    )

    def make_context(
        self,
        *,
        profile: str = "quick",
        seed: int = 0,
        backend: str = "auto",
        progress: Callable[[str], None] | None = None,
    ) -> RunContext:
        """Build a :class:`RunContext` bound to this experiment's id."""
        return RunContext(
            experiment_id=self.id,
            profile=profile,
            seed=seed,
            backend=backend,
            progress=progress,
        )

    def execute(self, ctx: RunContext) -> list[Table]:
        """Run the experiment under ``ctx`` and return its tables."""
        return self.func(ctx)

    def matches_tags(self, tags: "set[str] | frozenset[str]") -> bool:
        """True iff this spec carries at least one of ``tags`` (case-folded)."""
        own = {tag.lower() for tag in self.tags}
        return bool(own & {tag.lower() for tag in tags})


def experiment(
    *,
    id: str,
    title: str,
    claim: str = "",
    tags: tuple[str, ...] = (),
) -> Callable[[Callable[[RunContext], list[Table]]], ExperimentSpec]:
    """Class-less declarative registration: decorate a context-style runner.

    Returns the :class:`ExperimentSpec`, which replaces the function in
    the module namespace.  Registration is
    idempotent per id only in the sense that re-executing a module
    replaces its own spec; two *different* modules claiming one id is a
    :class:`ConfigurationError`.
    """
    key = id.lower()

    def decorate(func: Callable[[RunContext], list[Table]]) -> ExperimentSpec:
        """Wrap ``func`` in a registered spec."""
        spec = ExperimentSpec(
            id=key, title=title, claim=claim, tags=tuple(tags), func=func
        )
        existing = _REGISTRY.get(key)
        if existing is not None and existing.func.__module__ != func.__module__:
            raise ConfigurationError(
                f"experiment id {key!r} registered twice: "
                f"{existing.func.__module__} and {func.__module__}"
            )
        _REGISTRY[key] = spec
        return spec

    return decorate


def registered_specs() -> Iterator[ExperimentSpec]:
    """All registered specs, ordered by id."""
    for key in sorted(_REGISTRY):
        yield _REGISTRY[key]


def registered_spec(experiment_id: str) -> "ExperimentSpec | None":
    """Direct registry lookup by (case-insensitive) id; None when absent."""
    return _REGISTRY.get(experiment_id.lower())

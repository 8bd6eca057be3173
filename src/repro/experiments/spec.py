"""Declarative experiment specs and the registry that holds them.

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
it in the process-wide registry.  :func:`discover` imports every
``eNN_*`` / ``aNN_*`` module of the package once, which fires their
decorators, so a new experiment needs no registry edit;
:func:`all_specs` and :func:`get_spec` read the registry after
discovering.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigurationError
from .context import RunContext
from .table import Table

__all__ = ["ExperimentSpec", "experiment", "discover", "all_specs", "get_spec"]

#: Process-wide spec registry, keyed by lower-case experiment id.
#: Populated by the :func:`experiment` decorator at module import time.
_REGISTRY: dict[str, "ExperimentSpec"] = {}

#: Experiment modules are named ``<group><number>_<slug>`` — e.g.
#: ``e06_overhead`` or ``a01_constant_calibration``.
_MODULE_PATTERN = re.compile(r"^[a-z]\d{2}_")

_discovered = False


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


def discover() -> None:
    """Import every experiment module in the package (idempotent).

    Importing a module executes its :func:`experiment` decorator, which
    registers the spec.  New experiments therefore need no registry edit
    at all — drop a ``eNN_*.py`` module in the package and it is found.
    """
    global _discovered
    if _discovered:
        return
    package = importlib.import_module(__package__)
    for info in pkgutil.iter_modules(package.__path__):
        if _MODULE_PATTERN.match(info.name):
            importlib.import_module(f"{__package__}.{info.name}")
    _discovered = True


def all_specs() -> list[ExperimentSpec]:
    """Every registered spec, ordered by id."""
    discover()
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up a spec by id (case-insensitive)."""
    discover()
    spec = _REGISTRY.get(experiment_id.lower())
    if spec is None:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        )
    return spec

"""Experiment registry: decorator-populated, discovery-driven.

Experiment modules self-register via the
:func:`repro.experiments.spec.experiment` decorator, and this module
merely *discovers* them — every ``eNN_*`` / ``aNN_*`` module in the
package is imported once, which fires its decorator.
"""

from __future__ import annotations

import importlib
import pkgutil
import re

from ..errors import ConfigurationError
from .spec import ExperimentSpec, registered_spec, registered_specs

__all__ = ["discover", "get_spec", "all_specs"]

#: Experiment modules are named ``<group><number>_<slug>`` — e.g.
#: ``e06_overhead`` or ``a01_constant_calibration``.
_MODULE_PATTERN = re.compile(r"^[a-z]\d{2}_")

_discovered = False


def discover() -> None:
    """Import every experiment module in the package (idempotent).

    Importing a module executes its :func:`~repro.experiments.spec.experiment`
    decorator, which registers the spec.  New experiments therefore need
    no registry edit at all — drop a ``eNN_*.py`` module in the package
    and it is found.
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
    return list(registered_specs())


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up a spec by id (case-insensitive)."""
    discover()
    spec = registered_spec(experiment_id)
    if spec is None:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(known.id for known in registered_specs())}"
        )
    return spec

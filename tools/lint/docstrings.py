"""The public-API docstring gate, on the shared lint reporter.

Violations are :class:`~tools.lint.reporter.Finding`\\ s and the
summary/exit-code handling goes through the shared
:class:`~tools.lint.reporter.Reporter` (``python -m tools.lint --all``).

Checks, for every module named in :data:`MODULES`:

* the module has a substantive module-level docstring;
* every public class, function, method, and property *defined in* that
  module has a docstring;

and additionally, for the topology zoo, that every registered family's
generator docstring mentions each of its schema parameters by name — so
a parameter cannot be added without documenting it.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from pathlib import Path

from .reporter import Finding, GateResult

__all__ = ["MODULES", "docstring_gate"]

#: The public-API modules the docstring gate covers.
MODULES: "tuple[str, ...]" = (
    "repro.beeping.noise",
    "repro.engine",
    "repro.engine.dense",
    "repro.engine.bitpacked",
    "repro.engine.mp",
    "repro.packing",
    "repro.experiments.spec",
    "repro.experiments.api",
    "repro.experiments.result",
    "repro.experiments.context",
    "repro.sweeps",
    "repro.sweeps.grid",
    "repro.sweeps.engine",
    "repro.sweeps.result",
    "repro.sweeps.workloads",
    "repro.graphs.topology",
    "repro.graphs.validation",
    "repro.graphs.generators",
    "repro.congest.algorithm",
    "repro.congest.context",
    "repro.congest.model",
    "repro.congest.network",
    "repro.congest.vectorized",
    "repro.algorithms.maximal_matching",
    "repro.algorithms.luby_mis",
    "repro.algorithms.coloring",
    "repro.algorithms.bfs",
    "repro.algorithms.leader_election",
    "repro.algorithms.verification",
    "repro.rng_philox",
    "repro.service",
    "repro.service.app",
    "repro.service.jobs",
    "repro.service.store",
    "repro.service.dedupe",
    "repro.service.events",
)

#: Shorter than this (after stripping) does not count as documentation.
MIN_DOC_LENGTH = 12


def _ensure_importable() -> None:
    """Put ``src/`` on ``sys.path`` when ``repro`` is not yet importable."""
    try:
        importlib.import_module("repro")
    except ImportError:
        src = Path(__file__).resolve().parents[2] / "src"
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))


def _has_doc(obj: object) -> bool:
    """Whether ``obj`` carries a substantive docstring of its own."""
    doc = inspect.getdoc(obj)
    return doc is not None and len(doc.strip()) >= MIN_DOC_LENGTH


def _check_class(
    module_name: str, cls: type, problems: "list[Finding]"
) -> None:
    """Record missing docstrings on a class and its public members."""
    label = f"{module_name}.{cls.__name__}"
    if not cls.__doc__ or len(cls.__doc__.strip()) < MIN_DOC_LENGTH:
        problems.append(Finding(label, 0, "", "missing class docstring"))
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            if not _has_doc(member):
                problems.append(
                    Finding(
                        f"{label}.{name}", 0, "", "missing property docstring"
                    )
                )
        elif inspect.isfunction(member) or isinstance(
            member, (classmethod, staticmethod)
        ):
            target = (
                member.__func__
                if isinstance(member, (classmethod, staticmethod))
                else member
            )
            if not _has_doc(target):
                problems.append(
                    Finding(
                        f"{label}.{name}", 0, "", "missing method docstring"
                    )
                )


def check_module(module_name: str) -> "list[Finding]":
    """All docstring violations in one module (empty list when clean)."""
    problems: "list[Finding]" = []
    module = importlib.import_module(module_name)
    if not module.__doc__ or len(module.__doc__.strip()) < MIN_DOC_LENGTH:
        problems.append(Finding(module_name, 0, "", "missing module docstring"))
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        defined_here = getattr(member, "__module__", None) == module_name
        if not defined_here:
            continue
        if inspect.isclass(member):
            _check_class(module_name, member, problems)
        elif inspect.isfunction(member):
            if not _has_doc(member):
                problems.append(
                    Finding(
                        f"{module_name}.{name}",
                        0,
                        "",
                        "missing function docstring",
                    )
                )
    return problems


def check_zoo_param_docs() -> "list[Finding]":
    """Every zoo family's generator must document its schema params.

    The builder adapters are lambdas over the public generator
    functions; the rule is enforced against the generator named like the
    family (or, for families wrapping an existing generator, against the
    family description) — each parameter name must appear as a word in
    the docstring/description text.
    """
    from repro.graphs import generators, topology_families

    problems: "list[Finding]" = []
    for family in topology_families():
        generator = getattr(generators, f"{family.name}_graph", None)
        text = inspect.getdoc(generator) if generator else None
        if text is None:
            text = family.description
        for param in family.params:
            if not re.search(rf"\b{re.escape(param.name)}\b", text):
                problems.append(
                    Finding(
                        f"topology family {family.name!r}",
                        0,
                        "",
                        f"parameter {param.name!r} not mentioned in its "
                        "documentation",
                    )
                )
    return problems


def docstring_gate() -> GateResult:
    """Run every docstring check; package the outcome for the reporter.

    Findings follow the :data:`MODULES` order.
    """
    _ensure_importable()
    problems: "list[Finding]" = []
    for module_name in MODULES:
        problems.extend(check_module(module_name))
    problems.extend(check_zoo_param_docs())
    return GateResult(
        name="docstrings",
        findings=problems,
        clean_message=f"docstring check: {len(MODULES)} modules clean",
        failure_summary=f"{len(problems)} docstring violation(s)",
    )

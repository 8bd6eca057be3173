"""Command-line entrypoint: the repo's one static-analysis gate.

::

    python -m tools.lint                 # AST rules over src/
    python -m tools.lint --all           # + docstring, link and doc-path gates
    python -m tools.lint src/repro/engine  # explicit paths
    python -m tools.lint --list          # rule table (id, scope, backing test)
    python -m tools.lint --all --report lint-report.txt

Exit codes follow the repo CLI convention (:mod:`repro.experiments.
harness`): 0 clean, **2** with one ``path:line: RULE-ID message``
diagnostic per finding otherwise.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

from .engine import lint_paths, registered_rules
from .reporter import GateResult, Reporter

__all__ = ["main", "lint_gate", "REPO_ROOT"]

#: The repository root (two levels above this package).
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Default python trees the AST rules cover.
DEFAULT_LINT_PATHS = ("src",)

#: Default markdown surfaces the link gate covers (CI's historical args).
DEFAULT_LINK_PATHS = ("README.md", "docs")


def lint_gate(
    paths: "Sequence[str | Path] | None" = None,
    root: "Path | None" = None,
) -> GateResult:
    """Run the AST rule engine; package the outcome for the reporter."""
    root = root if root is not None else REPO_ROOT
    if paths is None:
        paths = [root / path for path in DEFAULT_LINT_PATHS]
    findings, files_checked = lint_paths(paths, root)
    rules = registered_rules()
    return GateResult(
        name="repro-lint",
        findings=findings,
        clean_message=(
            f"repro-lint: {files_checked} file(s), {len(rules)} rule(s), clean"
        ),
        failure_summary=f"{len(findings)} lint finding(s)",
    )


def _list_rules() -> int:
    """Print the rule table: id, scope summary, backing runtime test."""
    for entry in registered_rules():
        scope = ", ".join(entry.scopes) if entry.scopes else "(all files)"
        print(f"{entry.id}  {entry.summary}")
        print(f"    scope: {scope}")
        if entry.excludes:
            print(f"    excludes: {', '.join(entry.excludes)}")
        if entry.backing_test:
            print(f"    backed by: {entry.backing_test}")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    """Parse arguments, run the selected gates, return the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description=(
            "repro-lint: AST determinism/contract rules, plus the "
            "docstring and markdown-link gates behind one reporter."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories for the AST rules (default: src/)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help=(
            "also run the docstring gate, the markdown link gate and the "
            "doc-path gate (python strings naming missing *.md files)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="also write every emitted line to FILE (CI failure artifact)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help=(
            "root the rule path-scopes and the doc-path gate are resolved "
            "against (default: the repo root; set when linting a fixture "
            "tree)"
        ),
    )
    args = parser.parse_args(argv)
    if args.list:
        return _list_rules()

    root = Path(args.root) if args.root else None
    gates = [lint_gate(args.paths or None, root=root)]
    if args.all:
        from .docpaths import doc_paths_gate
        from .docstrings import docstring_gate
        from .links import links_gate

        gates.append(docstring_gate())
        gates.append(links_gate([REPO_ROOT / path for path in DEFAULT_LINK_PATHS]))
        gates.append(doc_paths_gate(root if root is not None else REPO_ROOT))

    reporter = Reporter()
    exit_code = reporter.emit_all(gates)
    if args.report:
        reporter.write_report(args.report)
    return exit_code

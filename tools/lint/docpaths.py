"""The doc-path gate: python strings must not name missing markdown files.

Docstrings, error messages and experiment labels point readers at the
repo's markdown documents (``docs/ARCHITECTURE.md``, ``README.md`` ...).
When a document is renamed or never written, those pointers dangle
silently.  This gate scans every string constant — docstrings included —
in the python files of every tree in :data:`TREES`, picks out each
``*.md`` path, resolves it against the repo root, and reports
``path:line: DOC-001 ...`` for every one that does not exist.

URLs and glob patterns (``*.md``) are not paths and are skipped.  The
markdown link gate (:mod:`tools.lint.links`) is the counterpart for links
*inside* the markdown files.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .reporter import Finding, GateResult
from .walker import iter_python_files, relative_posix

__all__ = ["RULE_ID", "dead_doc_paths", "doc_paths_gate"]

#: Rule id printed with every finding.
RULE_ID = "DOC-001"

#: Python trees the gate scans, relative to the root.
TREES = ("src", "tests", "benchmarks", "tools", "examples")

#: Test files whose strings name markdown files in temporary fixture
#: trees, not in the repository.
FIXTURE_FILES = (
    "tests/lint/test_check_links.py",
    "tests/lint/test_doc_paths.py",
)

#: A relative ``*.md`` path: slash-separated segments ending in a name
#: with the ``.md`` suffix.  It may not start inside a longer token, so the
#: tails of URLs (``https://host/x.md``) and globs (``*.md``) never match.
MD_PATH = re.compile(r"(?<![\w/.:*-])((?:[\w.-]+/)*[\w-][\w.-]*\.md)(?!\w)")


def dead_doc_paths(path: Path, root: Path) -> "list[Finding]":
    """Every string in ``path`` naming a ``*.md`` path missing under ``root``."""
    relpath = relative_posix(path, root)
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (SyntaxError, UnicodeDecodeError) as error:
        line = getattr(error, "lineno", 0) or 0
        return [Finding(relpath, line, RULE_ID, f"unparseable file: {error}")]
    findings: "list[Finding]" = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            continue
        for match in MD_PATH.finditer(node.value):
            target = match.group(1)
            if (root / target).exists():
                continue
            # Exact inside triple-quoted literals; capped for strings whose
            # newlines are escapes or that span implicit concatenations.
            line = node.lineno + node.value.count("\n", 0, match.start())
            findings.append(
                Finding(
                    relpath,
                    min(line, node.end_lineno or line),
                    RULE_ID,
                    f"names {target}, which does not exist in the repo",
                )
            )
    return findings


def doc_paths_gate(root: Path) -> GateResult:
    """Scan the python files under ``root``'s :data:`TREES`; package the outcome."""
    files = [
        path
        for path in iter_python_files(root / tree for tree in TREES)
        if relative_posix(path, root) not in FIXTURE_FILES
    ]
    findings: "list[Finding]" = []
    for path in files:
        findings.extend(dead_doc_paths(path, root))
    return GateResult(
        name="doc-paths",
        findings=sorted(findings),
        clean_message=f"doc-path check: {len(files)} file(s) clean",
        failure_summary=f"{len(findings)} dead doc path(s)",
    )

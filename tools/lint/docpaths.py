"""The doc-path gate: code and docs must not name missing repo files.

Docstrings, error messages and experiment labels point readers at the
repo's markdown documents (``docs/ARCHITECTURE.md``, ``README.md`` ...),
and the documents point back at source files, tests and benchmarks
(``tests/engine/test_backends.py``).  When a file is renamed or deleted,
those pointers dangle silently.  This gate resolves both directions
against the repo root and reports ``path:line: DOC-001 ...`` for every
one that does not exist:

* every ``*.md`` path in a string constant — docstrings included — of
  the python files in every tree in :data:`TREES`.  URLs and glob
  patterns (``*.md``) are not paths and are skipped;
* every backticked repo path (an inline code span that is one path
  under a tree in :data:`PATH_TREES`, with any ``::test`` suffix
  stripped; globs are skipped) in the :data:`DOCUMENTS`.

The markdown link gate (:mod:`tools.lint.links`) is the counterpart for
``[text](target)`` links inside the markdown files.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .reporter import Finding, GateResult
from .walker import iter_python_files, relative_posix

__all__ = ["RULE_ID", "dead_doc_paths", "dead_repo_paths", "doc_paths_gate"]

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

#: Markdown documents whose backticked repo paths must resolve, as globs
#: relative to the root.  ROADMAP, CHANGES and SNIPPETS record history,
#: so the paths they name may be gone on purpose.
DOCUMENTS = ("README.md", "docs/*.md")

#: The top-level trees a backticked path in a document may point into.
PATH_TREES = (
    "src",
    "tests",
    "benchmarks",
    "tools",
    "examples",
    "perfbench",
    "docs",
)

#: An inline code span on one line.
CODE_SPAN = re.compile(r"`([^`\n]+)`")

#: A code span that is exactly one repo path (or a pytest node id); a
#: glob (``docs/*.md``) is not a path.
REPO_PATH = re.compile(rf"(?:{'|'.join(PATH_TREES)})/[^\s*]*")

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


def dead_repo_paths(markdown: Path, root: Path) -> "list[Finding]":
    """Every backticked repo path in ``markdown`` missing under ``root``."""
    relpath = relative_posix(markdown, root)
    findings: "list[Finding]" = []
    lines = markdown.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        for span in CODE_SPAN.finditer(line):
            if REPO_PATH.fullmatch(span.group(1)) is None:
                continue
            target = span.group(1).split("::", 1)[0]
            if not (root / target).exists():
                findings.append(
                    Finding(
                        relpath,
                        number,
                        RULE_ID,
                        f"names {target}, which does not exist in the repo",
                    )
                )
    return findings


def doc_paths_gate(root: Path) -> GateResult:
    """Scan ``root``'s :data:`TREES` and :data:`DOCUMENTS`; package the outcome."""
    files = [
        path
        for path in iter_python_files(root / tree for tree in TREES)
        if relative_posix(path, root) not in FIXTURE_FILES
    ]
    documents = sorted(
        {path for pattern in DOCUMENTS for path in root.glob(pattern)}
    )
    findings: "list[Finding]" = []
    for path in files:
        findings.extend(dead_doc_paths(path, root))
    for path in documents:
        findings.extend(dead_repo_paths(path, root))
    files.extend(documents)
    return GateResult(
        name="doc-paths",
        findings=sorted(findings),
        clean_message=f"doc-path check: {len(files)} file(s) clean",
        failure_summary=f"{len(findings)} dead doc path(s)",
    )

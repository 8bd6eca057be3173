"""The markdown link gate, on the shared lint walker/reporter.

File discovery (:func:`tools.lint.walker.iter_markdown_files`) and
reporting (:class:`~tools.lint.reporter.Reporter`) are shared with the
other gates of ``python -m tools.lint --all``.

Extracts inline links and images (``[text](target)``) and verifies
every **relative** target resolves to an existing file or directory
(anchors are stripped; external ``http(s)``/``mailto`` targets are
skipped — CI stays hermetic).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Sequence

from .reporter import Finding, GateResult
from .walker import iter_markdown_files

__all__ = ["links_gate", "broken_links"]

#: Inline markdown link/image: ``[text](target)`` (no reference style).
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not local files.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def broken_links(markdown: Path) -> "list[Finding]":
    """All unresolvable relative link targets in one markdown file."""
    problems: "list[Finding]" = []
    try:
        text = markdown.read_text()
    except OSError as error:
        return [Finding(str(markdown), 0, "", f"unreadable ({error})")]
    # fenced code blocks routinely contain )(-heavy pseudo-links; skip them
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (markdown.parent / relative).resolve()
        if not resolved.exists():
            problems.append(
                Finding(str(markdown), 0, "", f"broken link -> {target}")
            )
    return problems


def links_gate(paths: "Sequence[str | Path]") -> GateResult:
    """Check every markdown file under ``paths``; package the outcome."""
    files = iter_markdown_files(paths)
    problems: "list[Finding]" = []
    for markdown in files:
        problems.extend(broken_links(markdown))
    return GateResult(
        name="links",
        findings=problems,
        clean_message=f"link check: {len(files)} markdown file(s) clean",
        failure_summary=f"{len(problems)} broken link(s)",
    )

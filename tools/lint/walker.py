"""Shared file discovery for every gate: python trees and markdown docs.

One walker, used by the AST rule engine, the docstring gate (module
discovery) and the link gate (markdown discovery), so "which files does
CI check" has a single definition.  Paths are yielded sorted, so every
gate's output order is stable across filesystems.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["iter_python_files", "iter_markdown_files", "relative_posix"]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", ".mypy_cache"}


def _walk(path: Path, suffix: str) -> Iterator[Path]:
    """Yield files under ``path`` with ``suffix``, skipping junk dirs."""
    if path.is_file():
        yield path
        return
    for candidate in sorted(path.rglob(f"*{suffix}")):
        if any(part in _SKIP_DIRS for part in candidate.parts):
            continue
        yield candidate


def iter_python_files(paths: Iterable["str | Path"]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for argument in paths:
        for found in _walk(Path(argument), ".py"):
            seen.setdefault(found, None)
    return sorted(seen)


def iter_markdown_files(paths: Iterable["str | Path"]) -> list[Path]:
    """Expand file/directory arguments into markdown files.

    Directories recurse into ``*.md`` sorted; plain files pass through
    even without the suffix.
    """
    files: list[Path] = []
    for argument in paths:
        path = Path(argument)
        if path.is_dir():
            files.extend(
                found
                for found in sorted(path.rglob("*.md"))
                if not any(part in _SKIP_DIRS for part in found.parts)
            )
        else:
            files.append(path)
    return files


def relative_posix(path: Path, root: "Path | None") -> str:
    """``path`` relative to ``root`` as a posix string (rule scoping key).

    Falls back to the path itself when it is not under ``root`` — rules
    scoped by prefix then simply do not apply, rather than erroring.
    """
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()

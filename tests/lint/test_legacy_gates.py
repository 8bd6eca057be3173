"""The docstring gate (:mod:`tools.lint.docstrings`), run in-process.

``python -m tools.lint --all`` runs it with the other gates;
``tests/lint/test_repo_clean.py`` pins that the whole command exits 0 on
the repo.
"""

from __future__ import annotations

import sys

from tools.lint.docstrings import MODULES, check_module, docstring_gate


def test_docstring_gate_violation_lines_keep_the_legacy_shape():
    # run the real gate in-process and pin its clean and failure lines
    result = docstring_gate()
    assert result.ok
    assert result.clean_message == f"docstring check: {len(MODULES)} modules clean"
    assert result.failure_summary.endswith("docstring violation(s)")


def test_docstring_gate_covers_the_lint_relevant_modules():
    # the gate's module list is the public API surface; the modules the
    # lint rules guard must stay on it so both gates move together
    for module in (
        "repro.beeping.noise",
        "repro.engine.base",
        "repro.sweeps.engine",
        "repro.service.app",
    ):
        assert module in MODULES


def test_check_module_reports_a_missing_function_docstring(tmp_path, monkeypatch):
    # a scratch package with a missing docstring, checked through the
    # module-walking code path the gate uses
    pkg = tmp_path / "scratchpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        '"""A scratch package for the docstring gate test."""\n\n'
        "def undocumented():\n    return 1\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        problems = check_module("scratchpkg")
    finally:
        sys.modules.pop("scratchpkg", None)
    assert [problem.render() for problem in problems] == [
        "scratchpkg.undocumented: missing function docstring"
    ]

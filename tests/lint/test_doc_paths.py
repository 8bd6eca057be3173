"""The doc-path gate: strings naming missing ``*.md`` files are findings.

The strings in this file name markdown files inside temporary trees, so
the gate itself skips this file (``FIXTURE_FILES``).
"""

from __future__ import annotations

from pathlib import Path

from test_repo_clean import run_cli
from tools.lint.docpaths import RULE_ID, dead_doc_paths, doc_paths_gate

REPO_ROOT = Path(__file__).resolve().parents[2]


def plant(root: Path, relpath: str, source: str) -> Path:
    target = root / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


def test_repo_has_no_dead_doc_paths():
    result = doc_paths_gate(REPO_ROOT)
    rendered = "\n".join(finding.render() for finding in result.findings)
    assert result.ok, f"dead doc paths:\n{rendered}"


def test_planted_dead_paths_fail_the_all_gate(tmp_path):
    plant(
        tmp_path,
        "src/repro/core/regression.py",
        '"""Round engine.\n\nSee DESIGN.md §2.2 for the policies.\n"""\n',
    )
    plant(
        tmp_path,
        "tests/test_regression.py",
        'NOTE = "the contract docs/GONE.md promises"\n',
    )
    completed = run_cli("--all", "--root", str(tmp_path))
    assert completed.returncode == 2
    assert (
        f"src/repro/core/regression.py:3: {RULE_ID} names DESIGN.md"
        in completed.stdout
    )
    assert f"tests/test_regression.py:1: {RULE_ID} names docs/GONE.md" in (
        completed.stdout
    )
    assert "doc-paths" in completed.stderr


def test_existing_paths_urls_and_globs_pass(tmp_path):
    plant(tmp_path, "docs/GUIDE.md", "# Guide\n")
    plant(tmp_path, "README.md", "# Readme\n")
    path = plant(
        tmp_path,
        "src/repro/ok.py",
        '"""See docs/GUIDE.md and README.md."""\n'
        'URL = "https://example.org/docs/MISSING.md"\n'
        'PATTERN = "*.md"\n',
    )
    assert dead_doc_paths(path, tmp_path) == []


def test_every_python_tree_is_scanned(tmp_path):
    scanned = [
        "benchmarks/bench_x.py",
        "examples/x.py",
        "src/repro/x.py",
        "tests/test_x.py",
        "tools/x.py",
    ]
    for relpath in scanned:
        plant(tmp_path, relpath, '"""See DESIGN.md."""\n')
    plant(tmp_path, "notes/x.py", '"""See DESIGN.md."""\n')
    result = doc_paths_gate(tmp_path)
    assert [finding.location for finding in result.findings] == scanned

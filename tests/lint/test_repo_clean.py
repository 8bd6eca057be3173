"""The repo-wide gates: zero unsuppressed findings, and violations fail.

This is the acceptance contract of the lint PR made executable:

* ``src/`` lints clean (in-process, fast) — every determinism contract
  the rules codify holds across the entire codebase;
* ``python -m tools.lint --all`` exits 0 — the exact command CI runs;
* a deliberately-introduced unseeded ``np.random`` call inside an
  ``src/repro/engine/`` tree fails the same CLI with a ``path:line:
  RNG-001`` diagnostic and exit code 2 — so the gate demonstrably
  *would* catch the regression CI exists to prevent.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from tools.lint.cli import lint_gate

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args: str) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "tools.lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def test_src_tree_has_zero_unsuppressed_findings():
    result = lint_gate()
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.ok, f"repro-lint found violations in src/:\n{rendered}"


def test_cli_all_gates_exit_zero_on_the_repo():
    completed = run_cli("--all")
    assert completed.returncode == 0, (
        f"python -m tools.lint --all failed:\n"
        f"{completed.stdout}{completed.stderr}"
    )
    assert "repro-lint:" in completed.stdout
    assert "docstring check:" in completed.stdout
    assert "link check:" in completed.stdout
    assert "doc-path check:" in completed.stdout


def test_seeded_engine_violation_fails_with_rng001_diagnostic(tmp_path):
    bad = tmp_path / "src" / "repro" / "engine" / "regression.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import numpy as np\n\n"
        "def draw():\n"
        "    return np.random.rand(8)\n"
    )
    completed = run_cli("--root", str(tmp_path), str(tmp_path))
    assert completed.returncode == 2
    assert (
        "src/repro/engine/regression.py:4: RNG-001" in completed.stdout
    )


def test_cli_list_names_every_rule():
    completed = run_cli("--list")
    assert completed.returncode == 0
    for rule_id in (
        "RNG-001",
        "RNG-002",
        "DET-001",
        "SPAWN-001",
        "WINDOW-001",
        "LOCK-001",
    ):
        assert rule_id in completed.stdout


def test_cli_report_artifact_written_on_failure(tmp_path):
    bad = tmp_path / "src" / "repro" / "engine" / "regression.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    report = tmp_path / "lint-report.txt"
    completed = run_cli(
        "--root", str(tmp_path), str(tmp_path), "--report", str(report)
    )
    assert completed.returncode == 2
    assert "RNG-002" in report.read_text()

"""The mypy gate over the executor and sweep engine (skipped without mypy).

``mypy.ini`` scopes basic-strictness checking (``check_untyped_defs``,
``no_implicit_optional``) to ``src/repro/engine/``,
``src/repro/packing.py`` and ``src/repro/sweeps/`` — the schedule
executor with its two kernels, the bit-packing primitives they run on,
and the sweep engine that fans work across it.  mypy is not a runtime dependency of
the library; when it is absent (the pinned dev container ships without
it) the gate is skipped here and runs in CI's lint job instead.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed (CI's lint job runs this gate)",
)


def test_engine_and_sweeps_typecheck_clean():
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            "mypy.ini",
            "src/repro/engine",
            "src/repro/packing.py",
            "src/repro/sweeps",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, (
        f"mypy found type errors:\n{completed.stdout}{completed.stderr}"
    )

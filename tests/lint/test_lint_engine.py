"""Engine mechanics: pragmas, unused suppressions, imports, reporting."""

from __future__ import annotations

import io
from pathlib import Path

from tools.lint.engine import (
    SUPPRESSION_RULE_ID,
    ImportTable,
    lint_file,
    registered_rules,
)
from tools.lint.reporter import Finding, GateResult, Reporter

import ast


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


# ------------------------------------------------------------- suppression


def test_pragma_suppresses_a_finding_on_its_line(tmp_path):
    path = write(
        tmp_path,
        "src/repro/service/locks.py",
        "def f(lock):\n"
        "    lock.acquire()  # repro-lint: disable=LOCK-001\n",
    )
    assert lint_file(path, tmp_path) == []


def test_pragma_suppresses_only_the_named_rule(tmp_path):
    path = write(
        tmp_path,
        "src/repro/service/locks.py",
        "def f(lock):\n"
        "    lock.acquire()  # repro-lint: disable=RNG-001\n",
    )
    findings = lint_file(path, tmp_path)
    # the LOCK-001 finding survives, and the RNG-001 pragma is unused
    assert sorted(f.rule for f in findings) == [SUPPRESSION_RULE_ID, "LOCK-001"]


def test_unused_suppression_is_itself_a_finding(tmp_path):
    path = write(
        tmp_path,
        "src/repro/service/clean.py",
        "x = 1  # repro-lint: disable=LOCK-001\n",
    )
    findings = lint_file(path, tmp_path)
    assert [f.rule for f in findings] == [SUPPRESSION_RULE_ID]
    assert "unused suppression" in findings[0].message


def test_unknown_rule_id_in_pragma_is_flagged(tmp_path):
    path = write(
        tmp_path,
        "src/repro/service/clean.py",
        "x = 1  # repro-lint: disable=NOPE-999\n",
    )
    findings = lint_file(path, tmp_path)
    assert [f.rule for f in findings] == [SUPPRESSION_RULE_ID]
    assert "unknown rule" in findings[0].message


def test_comma_separated_pragma_suppresses_multiple_rules(tmp_path):
    path = write(
        tmp_path,
        "src/repro/engine/multi.py",
        "import time\n"
        "def f(a):\n"
        "    return [x for x in set(a)], time.time()  "
        "# repro-lint: disable=RNG-002,DET-001\n",
    )
    # one pragma line, two rules named, both findings suppressed
    findings = lint_file(path, tmp_path)
    assert findings == []


def test_unparseable_file_reports_instead_of_crashing(tmp_path):
    path = write(tmp_path, "src/repro/engine/broken.py", "def f(:\n")
    findings = lint_file(path, tmp_path)
    assert [f.rule for f in findings] == [SUPPRESSION_RULE_ID]
    assert "unparseable" in findings[0].message


# ------------------------------------------------------------ import table


def test_import_table_resolves_aliases_and_from_imports():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.random import default_rng as mk\n"
        "from time import time\n"
    )
    table = ImportTable(tree, "repro.core.x")
    assert table.resolve(ast.parse("np.random.rand", mode="eval").body) == (
        "numpy.random.rand"
    )
    assert table.resolve(ast.parse("mk", mode="eval").body) == (
        "numpy.random.default_rng"
    )
    assert table.resolve(ast.parse("time", mode="eval").body) == "time.time"
    assert table.resolve(ast.parse("unbound.attr", mode="eval").body) is None


def test_import_table_resolves_relative_imports():
    tree = ast.parse("from ..engine import run_schedule_batch\n")
    table = ImportTable(tree, "repro.beeping.noise")
    resolved = table.resolve(
        ast.parse("run_schedule_batch", mode="eval").body
    )
    assert resolved == "repro.engine.run_schedule_batch"


# --------------------------------------------------------------- reporting


def test_finding_render_formats():
    with_line = Finding("src/x.py", 7, "RNG-001", "boom")
    assert with_line.render() == "src/x.py:7: RNG-001 boom"
    legacy = Finding("repro.engine.Foo", 0, "", "missing class docstring")
    assert legacy.render() == "repro.engine.Foo: missing class docstring"


def test_reporter_exit_codes_and_report_file(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    reporter = Reporter(out=out, err=err)
    clean = GateResult("a", [], "a clean", "a failed")
    dirty = GateResult(
        "b", [Finding("f.py", 1, "RNG-001", "bad")], "b clean", "1 finding"
    )
    assert reporter.emit_all([clean, dirty]) == 2
    assert "a clean" in out.getvalue()
    assert "f.py:1: RNG-001 bad" in out.getvalue()
    assert "1 finding" in err.getvalue()
    assert "FAILED gate(s): b" in err.getvalue()
    report = tmp_path / "report.txt"
    reporter.write_report(str(report))
    text = report.read_text()
    assert "f.py:1: RNG-001 bad" in text and "a clean" in text


def test_reporter_all_clean_exits_zero():
    out, err = io.StringIO(), io.StringIO()
    reporter = Reporter(out=out, err=err)
    assert reporter.emit_all([GateResult("a", [], "a clean", "a failed")]) == 0
    assert err.getvalue() == ""


# ---------------------------------------------------------------- registry


def test_rule_registry_has_the_contract_rules():
    ids = {rule.id for rule in registered_rules()}
    assert {
        "RNG-001",
        "RNG-002",
        "DET-001",
        "SPAWN-001",
        "WINDOW-001",
        "LOCK-001",
    } <= ids
    for rule in registered_rules():
        assert rule.summary, rule.id
        assert rule.backing_test, f"{rule.id} must cite its runtime test"

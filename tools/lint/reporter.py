"""Findings and the shared reporter used by every static-analysis gate.

A gate (the AST rule engine, the docstring gate, the link gate) produces
:class:`Finding`s; the :class:`Reporter` renders them one per line and
prints the gate's summary.  Two rendering conventions coexist:

* ``path:line: RULE-ID message`` — AST rule findings (diagnostic style,
  clickable in editors and CI logs);
* ``location: message`` — docstring and link gate findings, which carry
  no line information.

Exit-code convention: the lint entrypoint exits **2** on findings
(matching the CLI's one-line ``error: ...``/exit-2 diagnostics
convention in :mod:`repro.experiments.harness`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

__all__ = ["Finding", "GateResult", "Reporter"]


@dataclass(frozen=True, order=True)
class Finding:
    """One violation: where it is, which rule fired, and why.

    Attributes
    ----------
    location:
        A file path (for file-based gates) or a dotted module / symbol
        name (the docstring gate).
    line:
        1-based line number, or 0 when the gate has no line information
        (the docstring and link gates); zero-line findings render without
        a line field.
    rule:
        Rule identifier (``"RNG-001"``), or ``""`` for the docstring and
        link gates, whose output carries no rule id.
    message:
        Human-readable one-line explanation.
    """

    location: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        """The finding as one diagnostic line."""
        if self.line:
            prefix = f"{self.location}:{self.line}: "
        else:
            prefix = f"{self.location}: " if self.location else ""
        rule = f"{self.rule} " if self.rule else ""
        return f"{prefix}{rule}{self.message}"


@dataclass(frozen=True)
class GateResult:
    """The outcome of running one gate.

    Attributes
    ----------
    name:
        Short gate name (``"repro-lint"``, ``"docstrings"``, ``"links"``).
    findings:
        Every unsuppressed finding, already sorted for stable output.
    clean_message:
        The line printed when the gate found nothing (e.g. ``"link
        check: 3 markdown file(s) clean"``).
    failure_summary:
        The stderr summary when findings exist (e.g. ``"2 broken
        link(s)"``).
    """

    name: str
    findings: Sequence[Finding]
    clean_message: str
    failure_summary: str

    @property
    def ok(self) -> bool:
        """Whether the gate passed (no findings)."""
        return not self.findings


class Reporter:
    """Renders gate results to streams and accumulates an overall verdict.

    One reporter instance serves a whole run (every gate of
    ``python -m tools.lint --all``); every rendered
    line is also retained so the CLI can write a report artifact for CI
    to upload on failure.
    """

    def __init__(
        self,
        out: "IO[str] | None" = None,
        err: "IO[str] | None" = None,
    ) -> None:
        """Create a reporter writing to ``out``/``err`` (default std streams)."""
        self._out = out if out is not None else sys.stdout
        self._err = err if err is not None else sys.stderr
        self._lines: list[str] = []
        self._failed_gates: list[str] = []

    @property
    def failed_gates(self) -> list[str]:
        """Names of gates that reported at least one finding."""
        return list(self._failed_gates)

    @property
    def report_lines(self) -> list[str]:
        """Every line emitted so far (findings and summaries), in order."""
        return list(self._lines)

    def _print(self, text: str, stream: "IO[str]") -> None:
        """Write one line to ``stream`` and retain it for the report."""
        print(text, file=stream)
        self._lines.append(text)

    def emit(self, result: GateResult) -> bool:
        """Render one gate's findings and summary; returns ``result.ok``."""
        for finding in result.findings:
            self._print(finding.render(), self._out)
        if result.findings:
            self._print(result.failure_summary, self._err)
            self._failed_gates.append(result.name)
        else:
            self._print(result.clean_message, self._out)
        return result.ok

    def emit_all(self, results: Iterable[GateResult]) -> int:
        """Render every gate; return the consolidated exit code (0 or 2)."""
        ok = True
        for result in results:
            ok = self.emit(result) and ok
        if not ok:
            self._print(
                "lint: FAILED gate(s): " + ", ".join(self._failed_gates),
                self._err,
            )
            return 2
        return 0

    def write_report(self, path: str) -> None:
        """Write every emitted line to ``path`` (the CI failure artifact)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self._lines) + "\n")

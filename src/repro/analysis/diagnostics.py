"""Diagnostics emitted by the static kernel verifier.

A :class:`Diagnostic` pins one finding to one instruction (or the whole
program), carries the rule ID from :mod:`repro.analysis.rules`, and renders
both human-readable (``[E] CMEM301 @12 (line 34) mac.c: ...``) and as JSON
for tooling.  :class:`LintReport` aggregates the findings of one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Any, Dict, List


@unique
class Severity(Enum):
    """How bad a finding is.

    * ``ERROR`` — the program violates an architectural invariant and will
      fault (or silently corrupt state) when executed.
    * ``WARNING`` — legal but almost certainly a bug (dead write, unlocked
      remote vector access).
    * ``INFO`` — performance advisory (a stall the static scheduler could
      hide); never fails a lint.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    @property
    def tag(self) -> str:
        return {"error": "E", "warning": "W", "info": "I"}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the verifier."""

    rule: str
    severity: Severity
    message: str
    index: int = -1  # instruction index in the program; -1 = program-level
    opcode: str = ""
    source_line: int = -1

    def render(self) -> str:
        where = f"@{self.index}" if self.index >= 0 else "@program"
        line = f" (line {self.source_line})" if self.source_line > 0 else ""
        op = f" {self.opcode}" if self.opcode else ""
        return f"[{self.severity.tag}] {self.rule} {where}{line}{op}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "index": self.index,
            "opcode": self.opcode,
            "source_line": self.source_line,
            "message": self.message,
        }


@dataclass
class LintReport:
    """All findings of one verifier pass over one program."""

    program_length: int
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    # -- queries ---------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """No errors (warnings and advisories allowed)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """No errors and no warnings (advisories allowed)."""
        return not self.errors and not self.warnings

    def sorted(self) -> List[Diagnostic]:
        return sorted(self.diagnostics, key=lambda d: (d.severity.rank, d.index))

    # -- rendering -------------------------------------------------------------

    def render(self, *, max_infos: int = 20) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"lint: {self.program_length} instructions, "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} advisory(ies)"
        ]
        shown_infos = 0
        for diag in self.sorted():
            if diag.severity is Severity.INFO:
                if shown_infos >= max_infos:
                    continue
                shown_infos += 1
            lines.append("  " + diag.render())
        hidden = len(self.infos) - shown_infos
        if hidden > 0:
            lines.append(f"  ... {hidden} more advisories suppressed")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "program_length": self.program_length,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "clean": self.clean,
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

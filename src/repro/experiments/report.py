"""Uniform result container + plain-text table rendering.

Why this is NOT :mod:`repro.obs.report`: the two layers serve different
contracts.  An experiment result is a **byte-pinned replica of one
published table or figure** — EXPERIMENTS.md holds the plain-text
rendering of every registered experiment, and
``tests/experiments/test_experiments_md.py`` compares those blocks byte
for byte with a fresh run, so the format can never change without
regenerating that file.  An obs report is a
**schema-versioned run document** (``maicc-obs-report/1``) built for
dashboards and machine consumers, free to grow new panels.  Since the
DSE refactor, the *data* behind every experiment driver already flows
through :func:`repro.dse.run_sweep`; anything that wants the charted /
validated form of a sweep should go through ``scripts/report.py dse``
(:func:`repro.obs.report.build_dse_report`), not grow a second schema
here.  The bridge between the worlds is :meth:`ExperimentResult.as_dict`
— a deterministic JSON-safe view of the pinned table (``raw`` excluded:
it holds live simulation objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class ExperimentResult:
    """One regenerated table or figure."""

    experiment: str          # e.g. "table4"
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    raw: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_by(self, key: str, value: Any) -> Dict[str, Any]:
        for row in self.rows:
            if row.get(key) == value:
                return row
        raise KeyError(f"no row with {key}={value!r}")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe view of the pinned table (``raw`` excluded).

        This is the hand-off shape for machine consumers — the same
        dict-of-lists convention the ``maicc-obs-report/1`` documents
        use — so tooling that joins experiment pins with obs artifacts
        never parses the plain-text rendering.
        """
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3g}"
        if magnitude >= 100:
            return f"{value:.0f}"
        return f"{value:.3g}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render an :class:`ExperimentResult` as an aligned text table.

    No line ends in whitespace: the last column is not padded.
    """
    header = [result.title, "=" * len(result.title)]
    cols = result.columns
    cells = [[_fmt(row.get(c, "")) for c in cols] for row in result.rows]
    widths = [
        max(len(c), *(len(line[i]) for line in cells)) if cells else len(c)
        for i, c in enumerate(cols)
    ]

    def line(values):
        return "  ".join(v.ljust(w) for v, w in zip(values, widths)).rstrip()

    lines = [line(cols), line("-" * w for w in widths)]
    lines.extend(line(values) for values in cells)
    out = header + lines
    if result.notes:
        out.append("")
        out.extend(f"note: {n}" for n in result.notes)
    return "\n".join(out)

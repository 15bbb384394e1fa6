"""Report assembly and emission for scenario runs.

A report is an ordered list of (quantity, a_index, b_index, value, flag)
rows plus identification of the scenario that produced it.  The CSV form is
exactly the documented six-column schema, quoted per RFC 4180, with the tool
version and scenario hash carried as ordinary data rows so the file stays
round-trippable by any csv reader.  The table form is for humans.

Emission is deterministic: floats are printed with repr (shortest
round-trip) in CSV and with 9 significant digits in tables, rows keep their
assembly order, and nothing time- or host-dependent is written.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional

from .errors import UsageError

CSV_COLUMNS = ("scenario_id", "quantity", "a_index", "b_index", "value", "tolerance_flag")

FLAG_OK = "ok"
FLAG_FAIL = "fail"


@dataclass
class ReportRow:
    quantity: str
    a_index: Optional[int] = None
    b_index: Optional[int] = None
    value: float | str = ""
    flag: str = ""


@dataclass
class Report:
    """Everything a scenario run produced, in emission order."""

    scenario_id: str
    scenario_sha256: str
    tool_version: str
    rows: list[ReportRow] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def add(
        self,
        quantity: str,
        value: float | str,
        a_index: Optional[int] = None,
        b_index: Optional[int] = None,
        flag: str = "",
    ) -> None:
        self.rows.append(ReportRow(quantity, a_index, b_index, value, flag))

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.rows.append(ReportRow("failure", None, None, message, FLAG_FAIL))

    @property
    def has_failures(self) -> bool:
        return bool(self.failures)

    @property
    def diagnostics_ok(self) -> bool:
        return not any(r.flag == FLAG_FAIL for r in self.rows)


def _csv_value(v: float | str) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _table_value(v: float | str) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def emit_report(report: Report, fmt: str = "table") -> str:
    """Render the report as 'table' or 'csv' text."""
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "table":
        return _emit_table(report)
    raise UsageError(f"unknown report format {fmt!r}")


def _emit_csv(report: Report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    w.writerow(CSV_COLUMNS)
    sid = report.scenario_id
    w.writerow([sid, "tool_version", "", "", report.tool_version, ""])
    w.writerow([sid, "scenario_sha256", "", "", report.scenario_sha256, ""])
    for r in report.rows:
        w.writerow(
            [
                sid,
                r.quantity,
                "" if r.a_index is None else str(r.a_index),
                "" if r.b_index is None else str(r.b_index),
                _csv_value(r.value),
                r.flag,
            ]
        )
    return buf.getvalue()


def _emit_table(report: Report) -> str:
    lines = [
        "eprgeo scenario report",
        f"scenario id: {report.scenario_id}",
        f"scenario sha256: {report.scenario_sha256}",
        f"tool version: {report.tool_version}",
        "",
    ]
    body = []
    for r in report.rows:
        ai = "-" if r.a_index is None else str(r.a_index)
        bi = "-" if r.b_index is None else str(r.b_index)
        body.append((r.quantity, ai, bi, _table_value(r.value), r.flag))
    widths = [
        max([len("quantity")] + [len(b[0]) for b in body]),
        max([len("a")] + [len(b[1]) for b in body]),
        max([len("b")] + [len(b[2]) for b in body]),
        max([len("value")] + [len(b[3]) for b in body]),
    ]
    header = (
        f"{'quantity':<{widths[0]}}  {'a':>{widths[1]}}  "
        f"{'b':>{widths[2]}}  {'value':>{widths[3]}}  flag"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for q, ai, bi, val, flag in body:
        lines.append(
            f"{q:<{widths[0]}}  {ai:>{widths[1]}}  {bi:>{widths[2]}}  "
            f"{val:>{widths[3]}}  {flag}"
        )
    if report.failures:
        lines.append("")
        lines.append(f"FAILURES: {len(report.failures)}")
        for msg in report.failures:
            lines.append(f"  - {msg}")
    lines.append("")
    return "\n".join(lines)

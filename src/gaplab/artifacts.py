"""Pipeline reports, and the CSV, JSON and summary files written from them:
floats with ``repr`` (shortest round-trip decimal), rows in report order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class Report:
    def __init__(self, name: str):
        self.name = name
        self.checks: list[tuple[str, bool, str]] = []
        self.tables: dict[str, tuple[list[str], list[tuple]]] = {}
        self.ledger: dict | None = None

    def check(self, label: str, ok, detail: str = "") -> bool:
        self.checks.append((label, bool(ok), detail))
        return bool(ok)

    def table(self, filename: str, header: list[str], rows: list[tuple]):
        self.tables[filename] = (header, rows)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_artifacts(reports: list[Report], out_dir: Path, formats) -> Path:
    """Write every report's tables (``csv``), its ledger (``json``) and the
    summary into the existing directory ``out_dir``; a file that cannot be
    written raises its ``OSError``."""
    out_dir = Path(out_dir)
    for rep in reports:
        for filename, (header, rows) in rep.tables.items():
            if "csv" in formats:
                (out_dir / filename).write_text("".join(
                    ",".join(map(_cell, row)) + "\n"
                    for row in [header, *rows]), encoding="utf-8", newline="")
        if "json" in formats and rep.ledger is not None:
            (out_dir / "constants.json").write_text(json.dumps(
                rep.ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out_dir / "summary.txt").write_text(
        "\n".join(summary_lines(reports)) + "\n", encoding="utf-8")
    return out_dir


def summary_lines(reports: list[Report]) -> list[str]:
    return [f"[{'PASS' if ok else 'FAIL'}] {rep.name}: {label}"
            + (f"  ({detail})" if detail else "")
            for rep in reports for label, ok, detail in rep.checks]

"""Rendering and export of experiment results (text, CSV, JSON)."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Union


def format_table(result: Dict) -> str:
    """Render a figure dict (title/headers/rows) as an aligned text table."""
    headers = [str(h) for h in result["headers"]]
    rows = [[str(c) for c in row] for row in result["rows"]]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))

    def fmt_row(cells: List[str]) -> str:
        return " | ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    lines = [result.get("title", ""), ""]
    lines.append(fmt_row(headers))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in rows)
    if "simt_table" in result:
        lines.append("")
        lines.append(format_table(result["simt_table"]))
    if "notes" in result:
        lines.append("")
        lines.append(result["notes"])
    return "\n".join(lines)


def format_failures(failures: List) -> str:
    """Render a failure summary from :func:`repro.experiments.failures`.

    Returns ``""`` when nothing was quarantined, so callers can append it
    unconditionally.
    """
    if not failures:
        return ""
    lines = [f"QUARANTINED CASES ({len(failures)})", ""]
    for f in failures:
        lines.append(f"  {f.label()}: {f.error_type}: {f.message}")
        if f.partial:
            progress = ", ".join(f"{k}={v}" for k, v in sorted(f.partial.items()))
            lines.append(f"    partial progress: {progress}")
    return "\n".join(lines)


def to_csv(result: Dict) -> str:
    """Render a figure dict as CSV text (headers + rows)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(result["headers"])
    writer.writerows(result["rows"])
    return buffer.getvalue()


def to_json(result: Dict) -> str:
    """Render a figure dict as a JSON document."""
    payload = {
        "title": result.get("title", ""),
        "headers": list(result["headers"]),
        "rows": [list(row) for row in result["rows"]],
    }
    if "series" in result:
        payload["series"] = result["series"]
    if "simt_table" in result:
        payload["simt_table"] = {
            "title": result["simt_table"].get("title", ""),
            "headers": list(result["simt_table"]["headers"]),
            "rows": [list(r) for r in result["simt_table"]["rows"]],
        }
    return json.dumps(payload, indent=2)


def export(result: Dict, path: Union[str, Path]) -> None:
    """Write a figure dict to ``path``; the suffix picks the format.

    ``.csv`` and ``.json`` are structured; anything else gets the aligned
    text table.
    """
    path = Path(path)
    if path.suffix == ".csv":
        path.write_text(to_csv(result))
    elif path.suffix == ".json":
        path.write_text(to_json(result))
    else:
        path.write_text(format_table(result) + "\n")

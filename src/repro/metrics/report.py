"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows the paper's figures plot;
this helper keeps that output consistent and diff-friendly.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_table"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], title: str = "") -> str:
    """Render dict-rows as an aligned monospace table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(c), max((len(line[i]) for line in cells), default=0))
        for i, c in enumerate(columns)
    ]
    out = []
    if title:
        out.append(title)
    out.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    out.append("  ".join("-" * w for w in widths))
    for line in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(line, widths)))
    return "\n".join(out)


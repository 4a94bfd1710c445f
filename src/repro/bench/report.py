"""Plain-text tables for the scripts under ``benchmarks/``."""

from __future__ import annotations

from typing import Iterable


def format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Iterable[dict], columns: list[str] | None = None) -> str:
    """Render dict-rows as an aligned ASCII table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in cells
    )
    return f"{header}\n{rule}\n{body}"


def print_experiment(title: str, rows: Iterable[dict],
                     columns: list[str] | None = None) -> None:
    """Print one experiment block (title + table), benchmark-friendly."""
    print(f"\n=== {title} ===")
    print(format_table(rows, columns))

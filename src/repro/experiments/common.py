"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table", "mean"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
    float_format: str = "{:.1f}",
) -> str:
    """Plain-text table in the style of the paper's tables."""
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [len(h) for h in headers]
    for cells in rendered:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.cache.geometry import CacheGeometry
from repro.core.evaluate import evaluate_hash_functions
from repro.gf2.hashfn import XorHashFunction
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.context import PipelineContext

__all__ = ["format_table", "mean", "exact_miss_counts"]


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


def exact_miss_counts(
    trace: Trace,
    geometry: CacheGeometry,
    functions: Sequence[XorHashFunction],
    context: "PipelineContext | None" = None,
) -> list[int]:
    """Exact miss counts for a whole candidate front in one replay.

    Drivers that score many functions on the same trace (e.g. the
    polynomial sweep) route through the engine's batched evaluator
    instead of simulating one candidate at a time.  Pass ``context``
    to read previously verified candidates from its artifact cache and
    simulate only the rest.
    """
    evaluate_many = (
        context.evaluate_many if context is not None else evaluate_hash_functions
    )
    return [stats.misses for stats in evaluate_many(trace, geometry, list(functions))]

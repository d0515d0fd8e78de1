"""Shared helpers for the experiment drivers."""

from __future__ import annotations

from collections.abc import Callable, Sequence

__all__ = ["format_table", "mean", "mibench_rows"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
    float_format: str = "{:.1f}",
    average: bool = False,
) -> str:
    """Plain-text table in the style of the paper's tables.

    ``average`` appends an ``average`` row: the mean of every column
    after the first whose cells are all floats, blank elsewhere.
    """
    if average:
        columns = list(zip(*rows))[1:]
        means = [
            mean(c) if all(isinstance(v, float) for v in c) else "" for c in columns
        ]
        rows = [*rows, ["average", *means]]
    rendered = [
        [float_format.format(v) if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
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


def mibench_rows(
    row: Callable,
    scale: str,
    cache_bytes: int,
    benchmarks: Sequence[str] | None,
    seed: int,
    context,
) -> list:
    """``row(context, name, trace, geometry, base, app)`` for each
    MiBench benchmark (all by default): its complete data trace, the
    direct-mapped ``cache_bytes`` geometry, the modulo baseline stats
    and the paper's ``2-in`` optimization result, each a cached stage
    of ``context`` (``None`` runs on a fresh cache-less one).  The
    optimization is the record a ``repro campaign`` of the cell shares.
    """
    # Imported here: format_campaign imports this module for format_table.
    from repro.api.spec import ExperimentSpec, GeometrySpec, SearchSpec, TraceSpec
    from repro.core.optimizer import run_spec
    from repro.pipeline.context import PipelineContext
    from repro.workloads.registry import workload_names

    context = context if context is not None else PipelineContext()
    geometry_spec = GeometrySpec(cache_bytes=cache_bytes)
    geometry = geometry_spec.resolve()
    rows = []
    for name in benchmarks if benchmarks is not None else workload_names("mibench"):
        trace_spec = TraceSpec("mibench", name, scale=scale, seed=seed)
        trace = context.trace(trace_spec)
        base = context.baseline(trace, geometry)
        spec = ExperimentSpec(trace_spec, geometry_spec, SearchSpec(family="2-in"))
        app = run_spec(context, spec)[1]
        rows.append(row(context, name, trace, geometry, base, app))
    return rows

"""Paper Table 2: baseline misses/K-uop and % of misses removed by
optimized permutation-based XOR-functions.

For each MiBench/MediaBench benchmark, each cache size (1/4/16 KB) and
each fan-in budget (2-in / 4-in / 16-in), the driver profiles the
trace, hill-climbs the family, verifies by exact simulation and reports
the paper's two quantities: base misses/K-uop and % misses removed.
Data caches and instruction caches are separate runs, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.session import expand_grid
from repro.core.optimizer import OptimizationResult
from repro.experiments.common import format_table, mean
from repro.pipeline.campaign import run_campaign

__all__ = ["Table2Row", "Table2Result", "run_table2", "format_table2", "PAPER_TABLE2_AVERAGES"]

#: Paper Table 2 'average' rows: (kind, cache KB) -> (base, {family: %removed}).
PAPER_TABLE2_AVERAGES = {
    ("data", 1): (18.9, {"2-in": 30.1, "4-in": 33.9, "16-in": 34.6}),
    ("data", 4): (10.4, {"2-in": 42.3, "4-in": 43.6, "16-in": 44.0}),
    ("data", 16): (6.0, {"2-in": 25.9, "4-in": 27.0, "16-in": 26.9}),
    ("instruction", 1): (143.6, {"2-in": 20.1, "4-in": 26.2, "16-in": 27.4}),
    ("instruction", 4): (27.7, {"2-in": 47.8, "4-in": 60.9, "16-in": 61.1}),
    ("instruction", 16): (5.6, {"2-in": 57.5, "4-in": 59.6, "16-in": 59.6}),
}

DEFAULT_FAMILIES = ("2-in", "4-in", "16-in")


@dataclass
class Table2Row:
    """One benchmark at one cache size."""

    benchmark: str
    cache_bytes: int
    base_misses_per_kuop: float
    removed_percent: dict[str, float] = field(default_factory=dict)
    details: dict[str, OptimizationResult] = field(default_factory=dict)


@dataclass
class Table2Result:
    """All rows of one Table 2 half (data or instruction caches)."""

    kind: str
    scale: str
    rows: list[Table2Row]

    def rows_for(self, cache_bytes: int) -> list[Table2Row]:
        return [r for r in self.rows if r.cache_bytes == cache_bytes]

    def average_removed(self, cache_bytes: int, family: str) -> float:
        return mean(
            r.removed_percent[family] for r in self.rows_for(cache_bytes)
        )

    def average_base(self, cache_bytes: int) -> float:
        return mean(r.base_misses_per_kuop for r in self.rows_for(cache_bytes))


def run_table2(
    kind: str = "data",
    scale: str = "small",
    cache_sizes: tuple[int, ...] = (1024, 4096, 16384),
    families: tuple[str, ...] = DEFAULT_FAMILIES,
    benchmarks: tuple[str, ...] | None = None,
    seed: int = 0,
    workers: int | None = 1,
) -> Table2Result:
    """Regenerate one half of Table 2.

    The grid runs as a pipeline campaign: the conflict profile is
    computed once per (benchmark, cache size) and shared by all
    families through the session memo / artifact cache, and with
    ``workers > 1`` (or ``None`` for one per core) rows are simulated
    in parallel across a process pool.
    """
    specs = expand_grid(
        {
            "suite": "mibench",
            "benchmarks": benchmarks,
            "kinds": [kind],
            "cache_bytes": cache_sizes,
            "families": families,
            "scale": scale,
            "workload_seed": seed,
        }
    )
    campaign = run_campaign(specs, workers=workers, keep_details=True)
    rows: dict[tuple[str, int], Table2Row] = {}
    for campaign_row in campaign.rows:
        benchmark = campaign_row.spec.trace.benchmark
        cache_bytes = campaign_row.spec.geometry.cache_bytes
        family = campaign_row.spec.search.family
        row = rows.get((benchmark, cache_bytes))
        if row is None:
            row = Table2Row(
                benchmark=benchmark, cache_bytes=cache_bytes, base_misses_per_kuop=0.0
            )
            rows[(benchmark, cache_bytes)] = row
        row.removed_percent[family] = campaign_row.removed_percent
        row.details[family] = campaign_row.result
        row.base_misses_per_kuop = campaign_row.base_misses_per_kuop
    return Table2Result(kind=kind, scale=scale, rows=list(rows.values()))


def format_table2(result: Table2Result) -> str:
    """Render like the paper: per cache size, base + % removed columns."""
    families = list(result.rows[0].removed_percent.keys()) if result.rows else []
    sizes = sorted({r.cache_bytes for r in result.rows})
    headers = ["benchmark"]
    for size in sizes:
        headers.append(f"{size // 1024}KB base")
        headers.extend(f"{size // 1024}KB {f}" for f in families)
    by_benchmark: dict[str, dict[int, Table2Row]] = {}
    for row in result.rows:
        by_benchmark.setdefault(row.benchmark, {})[row.cache_bytes] = row
    table_rows = []
    for benchmark, per_size in by_benchmark.items():
        cells: list = [benchmark]
        for size in sizes:
            row = per_size[size]
            cells.append(row.base_misses_per_kuop)
            cells.extend(row.removed_percent[f] for f in families)
        table_rows.append(cells)
    average: list = ["average"]
    for size in sizes:
        average.append(result.average_base(size))
        average.extend(result.average_removed(size, f) for f in families)
    table_rows.append(average)
    return format_table(
        headers,
        table_rows,
        title=(
            f"Table 2 ({result.kind} caches, scale={result.scale}): "
            "base misses/K-uop and % misses removed"
        ),
    )

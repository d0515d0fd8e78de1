"""Extension experiment: three-Cs decomposition of the baseline misses.

Relates Table 2's removal percentages to the classic
compulsory/capacity/conflict split.  Two regimes emerge:

* when the FA-LRU capacity component is zero, the conflict pool is a
  hard upper bound on removal (first touches always miss);
* when it is not, hashing can remove far *more* than the nominal
  conflict pool — LRU's capacity definition is replacement-bound, and
  a good placement turns FA-LRU's cyclic-sweep pathologies into hits
  (our lame row removes 84% against a 2% "conflict" share).  This is
  the paper's Sec. 6.1 observation that hashing may beat full
  associativity, surfacing in the classification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.classify import MissBreakdown
from repro.cache.geometry import CacheGeometry
from repro.experiments.common import format_table, mibench_rows
from repro.pipeline.context import PipelineContext

__all__ = [
    "ClassificationRow",
    "run_miss_classification",
    "format_miss_classification",
]


@dataclass(frozen=True)
class ClassificationRow:
    benchmark: str
    cache_bytes: int
    breakdown: MissBreakdown
    removed_percent: float

    @property
    def conflict_percent(self) -> float:
        """Conflict share of all baseline misses (the removable pool)."""
        return 100.0 * self.breakdown.conflict_fraction


def _row(context, name, trace, geometry, base, app) -> ClassificationRow:
    fully = CacheGeometry.fully_associative(geometry.size_bytes, geometry.block_size)
    return ClassificationRow(
        benchmark=name,
        cache_bytes=geometry.size_bytes,
        breakdown=MissBreakdown.from_stats(base, context.baseline(trace, fully)),
        removed_percent=app.removed_percent,
    )


def run_miss_classification(
    scale: str = "small",
    cache_bytes: int = 4096,
    benchmarks: tuple[str, ...] | None = None,
    seed: int = 0,
    context: PipelineContext | None = None,
) -> list[ClassificationRow]:
    """Three-Cs split and 2-in removal per MiBench benchmark, as cached
    stages of ``context`` (FA-LRU of equal capacity for the split)."""
    return mibench_rows(_row, scale, cache_bytes, benchmarks, seed, context)


def format_miss_classification(rows: list[ClassificationRow]) -> str:
    table = [
        [
            r.benchmark,
            r.breakdown.total,
            r.breakdown.compulsory,
            r.breakdown.capacity,
            r.breakdown.conflict,
            r.conflict_percent,
            r.removed_percent,
        ]
        for r in rows
    ]
    size = rows[0].cache_bytes // 1024 if rows else 0
    return format_table(
        ["benchmark", "misses", "compulsory", "capacity", "conflict",
         "conflict %", "removed %"],
        table,
        average=True,
        title=f"Extension: three-Cs decomposition vs achieved removal "
        f"({size}KB data cache)",
    )

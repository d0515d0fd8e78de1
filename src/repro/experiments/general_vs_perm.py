"""Paper Sec. 6, first experiment: general XOR vs permutation-based.

The paper reports average data-cache miss reductions of 34.6/44.0/26.9%
(general) vs 32.3/43.9/26.7% (permutation-based) at 1/4/16 KB and
concludes that restricting the design space to permutation-based
functions costs almost nothing — the justification for the cheap
hardware of Sec. 5.  This driver reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.geometry import CacheGeometry, PAPER_HASHED_BITS
from repro.core.optimizer import optimize_for_trace
from repro.experiments.common import format_table, mean
from repro.pipeline.context import PipelineContext
from repro.search.families import GeneralXorFamily, PermutationFamily
from repro.workloads.registry import get_workload, workload_names

__all__ = ["GeneralVsPermResult", "run_general_vs_perm", "format_general_vs_perm",
           "PAPER_AVERAGES"]

#: cache KB -> (general %, permutation %) from Sec. 6.
PAPER_AVERAGES = {1: (34.6, 32.3), 4: (44.0, 43.9), 16: (26.9, 26.7)}


@dataclass
class GeneralVsPermResult:
    cache_bytes: int
    general_removed: dict[str, float]
    permutation_removed: dict[str, float]

    @property
    def general_average(self) -> float:
        return mean(self.general_removed.values())

    @property
    def permutation_average(self) -> float:
        return mean(self.permutation_removed.values())

    @property
    def gap(self) -> float:
        """How much restricting to permutation functions costs (points)."""
        return self.general_average - self.permutation_average


def run_general_vs_perm(
    scale: str = "small",
    cache_sizes: tuple[int, ...] = (1024, 4096, 16384),
    benchmarks: tuple[str, ...] | None = None,
    seed: int = 0,
    context: PipelineContext | None = None,
) -> list[GeneralVsPermResult]:
    """Optimize both families per benchmark and cache size, reading
    through ``context``'s artifact cache (``None`` runs without one)."""
    if context is None:
        context = PipelineContext()
    names = benchmarks if benchmarks is not None else tuple(workload_names("mibench"))
    n = PAPER_HASHED_BITS
    results = []
    for size in cache_sizes:
        geometry = CacheGeometry.direct_mapped(size)
        m = geometry.index_bits
        general: dict[str, float] = {}
        permutation: dict[str, float] = {}
        for name in names:
            trace = get_workload("mibench", name, scale, seed).data
            profile = context.profile(trace, geometry, n)
            general[name] = optimize_for_trace(
                trace, geometry, family=GeneralXorFamily(n, m), profile=profile,
                context=context,
            ).removed_percent
            permutation[name] = optimize_for_trace(
                trace, geometry, family=PermutationFamily(n, m), profile=profile,
                context=context,
            ).removed_percent
        results.append(
            GeneralVsPermResult(
                cache_bytes=size,
                general_removed=general,
                permutation_removed=permutation,
            )
        )
    return results


def format_general_vs_perm(results: list[GeneralVsPermResult]) -> str:
    rows = []
    for r in results:
        paper = PAPER_AVERAGES.get(r.cache_bytes // 1024)
        rows.append(
            [
                f"{r.cache_bytes // 1024}KB",
                r.general_average,
                r.permutation_average,
                r.gap,
                f"{paper[0]}/{paper[1]}" if paper else "-",
            ]
        )
    return format_table(
        ["cache", "general %", "permutation %", "gap", "paper (gen/perm)"],
        rows,
        title="Sec. 6 experiment 1: general vs permutation-based XOR (data caches)",
    )

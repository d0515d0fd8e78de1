"""Paper Sec. 6, first experiment: general XOR vs permutation-based.

The paper reports average data-cache miss reductions of 34.6/44.0/26.9%
(general) vs 32.3/43.9/26.7% (permutation-based) at 1/4/16 KB and
concludes that restricting the design space to permutation-based
functions costs almost nothing — the justification for the cheap
hardware of Sec. 5.  This driver reproduces that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.session import expand_grid
from repro.api.spec import ExecutionSpec
from repro.experiments.common import format_table, mean
from repro.pipeline.campaign import run_campaign
from repro.pipeline.context import PipelineContext

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
    workers: int | None = 1,
    context: PipelineContext | None = None,
) -> list[GeneralVsPermResult]:
    """Optimize both families per MiBench benchmark and cache size, as
    one campaign through ``context``'s artifact cache (``None`` runs
    without one); ``workers`` as in :func:`~repro.experiments.run_table2`."""
    specs = expand_grid(
        {
            "suite": "mibench",
            "benchmarks": benchmarks,
            "kinds": ["data"],
            "cache_bytes": cache_sizes,
            "families": ["general", "16-in"],
            "scale": scale,
            "workload_seed": seed,
        }
    )
    campaign = run_campaign(specs, context, ExecutionSpec(workers=workers))
    results = {size: GeneralVsPermResult(size, {}, {}) for size in cache_sizes}
    for row in campaign.rows:
        result = results[row.spec.geometry.cache_bytes]
        removed = (
            result.general_removed
            if row.spec.search.family == "general"
            else result.permutation_removed
        )
        removed[row.spec.trace.benchmark] = row.removed_percent
    return list(results.values())


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

"""Extension experiment: optimized direct-mapped vs skewed-associative.

The paper's related work (Seznec & Bodin, ref. [2]) attacks conflicts
with a *fixed* pair of hash functions and two banks; the paper attacks
them with an *application-specific* function and one bank.  This driver
puts the two on the same workloads at equal capacity, plus 2-way
set-associative LRU as the conventional middle ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.cache.geometry import CacheGeometry, PAPER_HASHED_BITS
from repro.cache.indexing import ModuloIndexing, XorIndexing
from repro.experiments.common import format_table, mibench_rows
from repro.gf2.hashfn import XorHashFunction
from repro.pipeline.context import PipelineContext

__all__ = ["SkewedComparisonRow", "run_skewed_comparison", "format_skewed_comparison"]


@dataclass(frozen=True)
class SkewedComparisonRow:
    benchmark: str
    base_misses: int
    optimized_dm_removed: float
    skewed_removed: float
    two_way_removed: float


def _skew_banks(n: int, m: int) -> list:
    """Seznec-style fixed inter-bank hash pair: modulo in bank 0, a
    fixed XOR permutation in bank 1."""
    sigma = [m + (c % (n - m)) for c in range(m)]
    return [
        ModuloIndexing(m),
        XorIndexing(XorHashFunction.from_sigma(n, m, sigma)),
    ]


def _row(context, name, trace, geometry, base, app, seed) -> SkewedComparisonRow:
    two_way = CacheGeometry(geometry.size_bytes, geometry.block_size, associativity=2)
    banks = _skew_banks(PAPER_HASHED_BITS, two_way.index_bits)
    skewed = context.simulate(trace, two_way, banks, seed=seed)
    return SkewedComparisonRow(
        benchmark=name,
        base_misses=base.misses,
        optimized_dm_removed=app.removed_percent,
        skewed_removed=skewed.removed_fraction(base),
        two_way_removed=context.baseline(trace, two_way).removed_fraction(base),
    )


def run_skewed_comparison(
    scale: str = "small",
    cache_bytes: int = 4096,
    benchmarks: tuple[str, ...] | None = None,
    seed: int = 0,
    context: PipelineContext | None = None,
) -> list[SkewedComparisonRow]:
    """Per MiBench benchmark, as cached stages of ``context``: the 2-in DM
    function, a two-bank skewed cache (its replacement seeded by ``seed``,
    like the workloads) and 2-way LRU, all at ``cache_bytes``."""
    row = partial(_row, seed=seed)
    return mibench_rows(row, scale, cache_bytes, benchmarks, seed, context)


def format_skewed_comparison(rows: list[SkewedComparisonRow]) -> str:
    table = [
        [r.benchmark, r.optimized_dm_removed, r.skewed_removed, r.two_way_removed]
        for r in rows
    ]
    return format_table(
        ["benchmark", "opt-DM 2-in %", "skewed 2-way %", "LRU 2-way %"],
        table,
        average=True,
        title="Extension: application-specific DM vs skewed-associative vs 2-way LRU "
        "(% misses removed, equal capacity)",
    )

"""Extension experiment: optimized direct-mapped vs skewed-associative.

The paper's related work (Seznec & Bodin, ref. [2]) attacks conflicts
with a *fixed* pair of hash functions and two banks; the paper attacks
them with an *application-specific* function and one bank.  This driver
puts the two on the same workloads at equal capacity, plus 2-way
set-associative LRU as the conventional middle ground.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import engine
from repro.cache.geometry import CacheGeometry, PAPER_HASHED_BITS
from repro.cache.indexing import ModuloIndexing, XorIndexing
from repro.core.optimizer import optimize_for_trace
from repro.experiments.common import format_table, mean
from repro.gf2.hashfn import XorHashFunction
from repro.workloads.registry import get_workload, workload_names

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


def run_skewed_comparison(
    scale: str = "small",
    cache_bytes: int = 4096,
    benchmarks: tuple[str, ...] | None = None,
    seed: int = 0,
) -> list[SkewedComparisonRow]:
    names = benchmarks if benchmarks is not None else tuple(workload_names("mibench"))
    geometry = CacheGeometry.direct_mapped(cache_bytes)
    n = PAPER_HASHED_BITS
    rows = []
    for name in names:
        trace = get_workload("mibench", name, scale, seed).data
        blocks = trace.block_addresses(geometry.block_size)
        base = engine.simulate(blocks, geometry)

        optimized = optimize_for_trace(trace, geometry, family="2-in")
        skewed = engine.simulate_banks(
            blocks, _skew_banks(n, geometry.index_bits - 1), seed=seed
        )
        two_way = engine.simulate(
            blocks,
            CacheGeometry(cache_bytes, geometry.block_size, associativity=2),
        )
        rows.append(
            SkewedComparisonRow(
                benchmark=name,
                base_misses=base.misses,
                optimized_dm_removed=optimized.removed_percent,
                skewed_removed=skewed.removed_fraction(base),
                two_way_removed=two_way.removed_fraction(base),
            )
        )
    return rows


def format_skewed_comparison(rows: list[SkewedComparisonRow]) -> str:
    table = [
        [r.benchmark, r.optimized_dm_removed, r.skewed_removed, r.two_way_removed]
        for r in rows
    ]
    table.append(
        [
            "average",
            mean(r.optimized_dm_removed for r in rows),
            mean(r.skewed_removed for r in rows),
            mean(r.two_way_removed for r in rows),
        ]
    )
    return format_table(
        ["benchmark", "opt-DM 2-in %", "skewed 2-way %", "LRU 2-way %"],
        table,
        title="Extension: application-specific DM vs skewed-associative vs 2-way LRU "
        "(% misses removed, equal capacity)",
    )

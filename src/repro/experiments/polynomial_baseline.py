"""Extension experiment: fixed polynomial hashing (Rau) vs
application-specific XOR-indexing.

The pre-history of the paper (refs [5, 9, 12]) uses one *fixed* hash
function for every program — typically reduction modulo an irreducible
polynomial.  The paper's thesis is that tuning the function to the
application beats any fixed choice.  This driver measures that claim:

* ``fixed``   — one irreducible polynomial hard-wired for all programs
  (the first of degree m, as a hardware designer would pick once);
* ``best-poly`` — the best irreducible polynomial *per program* (an
  oracle over the polynomial family, stronger than any fixed choice);
* ``app-specific`` — the paper's profiled 2-input permutation function.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import engine
from repro.cache.geometry import CacheGeometry, PAPER_HASHED_BITS
from repro.core.optimizer import optimize_for_trace
from repro.experiments.common import format_table, mean
from repro.gf2.polynomial import irreducible_polynomials, polynomial_hash_function
from repro.workloads.registry import get_workload, workload_names

__all__ = [
    "PolynomialBaselineRow",
    "run_polynomial_baseline",
    "format_polynomial_baseline",
]


@dataclass(frozen=True)
class PolynomialBaselineRow:
    benchmark: str
    base_misses: int
    fixed_poly_removed: float
    best_poly_removed: float
    app_specific_removed: float


def run_polynomial_baseline(
    scale: str = "small",
    cache_bytes: int = 4096,
    benchmarks: tuple[str, ...] | None = None,
    max_polynomials: int = 16,
    seed: int = 0,
) -> list[PolynomialBaselineRow]:
    names = benchmarks if benchmarks is not None else tuple(workload_names("mibench"))
    geometry = CacheGeometry.direct_mapped(cache_bytes)
    n = PAPER_HASHED_BITS
    m = geometry.index_bits
    polys = irreducible_polynomials(m)[:max_polynomials]
    functions = [polynomial_hash_function(n, p) for p in polys]

    rows = []
    for name in names:
        trace = get_workload("mibench", name, scale, seed).data
        blocks = trace.block_addresses(geometry.block_size)
        base = engine.simulate(blocks, geometry)
        poly_misses = [
            stats.misses for stats in engine.evaluate_many(blocks, geometry, functions)
        ]
        fixed = poly_misses[0]
        best = min(poly_misses)
        app = optimize_for_trace(trace, geometry, family="2-in")

        def removed(misses: int) -> float:
            return 100.0 * (base.misses - misses) / base.misses if base.misses else 0.0

        rows.append(
            PolynomialBaselineRow(
                benchmark=name,
                base_misses=base.misses,
                fixed_poly_removed=removed(fixed),
                best_poly_removed=removed(best),
                app_specific_removed=app.removed_percent,
            )
        )
    return rows


def format_polynomial_baseline(rows: list[PolynomialBaselineRow]) -> str:
    table = [
        [r.benchmark, r.fixed_poly_removed, r.best_poly_removed, r.app_specific_removed]
        for r in rows
    ]
    table.append(
        [
            "average",
            mean(r.fixed_poly_removed for r in rows),
            mean(r.best_poly_removed for r in rows),
            mean(r.app_specific_removed for r in rows),
        ]
    )
    return format_table(
        ["benchmark", "fixed poly %", "best poly %", "app-specific %"],
        table,
        title="Extension: fixed polynomial hashing (Rau) vs application-specific "
        "XOR (% misses removed, 4KB data cache)",
    )

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

from repro.cache.geometry import PAPER_HASHED_BITS
from repro.experiments.common import format_table, mibench_rows
from repro.gf2.polynomial import irreducible_polynomials, polynomial_hash_function
from repro.pipeline.context import PipelineContext

__all__ = [
    "PolynomialBaselineRow",
    "run_polynomial_baseline",
    "format_polynomial_baseline",
]

#: How many irreducible polynomials of degree m the ``best-poly``
#: column tries (in :func:`irreducible_polynomials` order).
POLYNOMIALS = 16


@dataclass(frozen=True)
class PolynomialBaselineRow:
    benchmark: str
    base_misses: int
    fixed_poly_removed: float
    best_poly_removed: float
    app_specific_removed: float


def _row(context, name, trace, geometry, base, app) -> PolynomialBaselineRow:
    functions = [
        polynomial_hash_function(PAPER_HASHED_BITS, p)
        for p in irreducible_polynomials(geometry.index_bits)[:POLYNOMIALS]
    ]
    removed = [
        stats.removed_fraction(base)
        for stats in context.evaluate_many(trace, geometry, functions)
    ]
    return PolynomialBaselineRow(
        benchmark=name,
        base_misses=base.misses,
        fixed_poly_removed=removed[0],
        best_poly_removed=max(removed),
        app_specific_removed=app.removed_percent,
    )


def run_polynomial_baseline(
    scale: str = "small",
    cache_bytes: int = 4096,
    benchmarks: tuple[str, ...] | None = None,
    seed: int = 0,
    context: PipelineContext | None = None,
) -> list[PolynomialBaselineRow]:
    """Fixed and best-of-:data:`POLYNOMIALS` polynomial hashing beside the
    2-in function per MiBench benchmark, as cached stages of ``context``."""
    return mibench_rows(_row, scale, cache_bytes, benchmarks, seed, context)


def format_polynomial_baseline(rows: list[PolynomialBaselineRow]) -> str:
    table = [
        [r.benchmark, r.fixed_poly_removed, r.best_poly_removed, r.app_specific_removed]
        for r in rows
    ]
    return format_table(
        ["benchmark", "fixed poly %", "best poly %", "app-specific %"],
        table,
        average=True,
        title="Extension: fixed polynomial hashing (Rau) vs application-specific "
        "XOR (% misses removed, 4KB data cache)",
    )

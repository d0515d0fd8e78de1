"""Exact evaluation of index functions on traces.

All entry points route through :mod:`repro.cache.engine`: one
geometry-dispatched simulation core, plus batched verification of a
whole candidate front in a single trace replay.  These are plain
engine calls; :class:`repro.pipeline.PipelineContext` fronts the same
evaluations with its content-addressed artifact cache.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import IndexingPolicy, ModuloIndexing, XorIndexing
from repro.cache.stats import CacheStats
from repro.gf2.hashfn import XorHashFunction
from repro.trace.trace import Trace

__all__ = [
    "evaluate_indexing",
    "evaluate_hash_function",
    "evaluate_hash_functions",
    "baseline_stats",
    "compare_indexings",
]


def evaluate_indexing(
    trace: Trace, geometry: CacheGeometry, indexing: IndexingPolicy
) -> CacheStats:
    """Exact miss count of a trace through a cache with this indexing."""
    from repro.cache import engine

    blocks = trace.block_addresses(geometry.block_size)
    return engine.simulate(blocks, geometry, indexing)


def evaluate_hash_function(
    trace: Trace, geometry: CacheGeometry, fn: XorHashFunction
) -> CacheStats:
    """Exact miss count with an XOR hash function as the set index."""
    if fn.m != geometry.index_bits:
        raise ValueError(
            f"hash function produces {fn.m} index bits, geometry needs "
            f"{geometry.index_bits}"
        )
    return evaluate_indexing(trace, geometry, XorIndexing(fn))


def evaluate_hash_functions(
    trace: Trace, geometry: CacheGeometry, functions: Sequence[XorHashFunction]
) -> list[CacheStats]:
    """Exact miss counts for a whole candidate front in one replay.

    Equivalent to calling :func:`evaluate_hash_function` per candidate
    (property-tested), but the index streams are computed in one stacked
    NumPy pass over the trace's working set.
    """
    from repro.cache import engine

    return engine.evaluate_many(trace, geometry, functions)


def baseline_stats(trace: Trace, geometry: CacheGeometry) -> CacheStats:
    """Miss count under conventional modulo indexing (the paper's base)."""
    return evaluate_indexing(trace, geometry, ModuloIndexing(geometry.index_bits))


def compare_indexings(
    trace: Trace,
    geometry: CacheGeometry,
    indexings: dict[str, IndexingPolicy],
) -> dict[str, CacheStats]:
    """Evaluate several indexing policies on the same trace."""
    return {
        name: evaluate_indexing(trace, geometry, indexing)
        for name, indexing in indexings.items()
    }

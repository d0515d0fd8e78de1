"""Organization dispatch: one entry point for every cache shape.

Each entry point derives the (set identity, key) streams once from the
indexing policy and hands them to the matching kernel in
:mod:`repro.cache.engine.core`; :func:`evaluate_many` is
:func:`simulate` over a front of candidate hash functions.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cache.engine.core import (
    compulsory_count,
    lru_miss_vector,
    misses_for_index_streams,
    skewed_miss_vector,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import IndexingPolicy, ModuloIndexing, XorIndexing
from repro.cache.stats import CacheStats
from repro.gf2.hashfn import XorHashFunction

__all__ = [
    "simulate",
    "simulate_banks",
    "simulate_capacity",
    "stats_from_misses",
    "evaluate_many",
]


def stats_from_misses(blocks: np.ndarray, misses: np.ndarray) -> CacheStats:
    """Assemble :class:`CacheStats` from a per-access miss vector."""
    return CacheStats(
        accesses=len(blocks),
        misses=int(np.count_nonzero(misses)),
        compulsory=compulsory_count(blocks),
    )


def simulate(
    blocks: np.ndarray,
    geometry: CacheGeometry,
    indexing: IndexingPolicy | None = None,
) -> CacheStats:
    """Replay a block trace through a cache of the given geometry.

    ``indexing`` defaults to modulo on the geometry's index bits.
    A direct-mapped geometry counts its misses as one row of
    :func:`misses_for_index_streams`; any other runs the grouped LRU
    kernel (full associativity is the single-set special case).
    """
    if indexing is None:
        indexing = ModuloIndexing(geometry.index_bits)
    if indexing.num_sets != geometry.num_sets:
        raise ValueError(
            f"indexing produces {indexing.num_sets} sets but geometry has "
            f"{geometry.num_sets}"
        )
    blocks = np.asarray(blocks, dtype=np.uint64)
    if len(blocks) == 0:
        return CacheStats(accesses=0, misses=0)
    if geometry.is_direct_mapped:
        set_ids = indexing.set_index_array(blocks)
        return CacheStats(
            accesses=len(blocks),
            misses=int(misses_for_index_streams(set_ids[None, :], blocks)[0]),
            compulsory=compulsory_count(blocks),
        )
    if geometry.num_sets == 1:
        misses = lru_miss_vector(None, blocks, geometry.associativity)
    else:
        misses = lru_miss_vector(
            indexing.set_index_array(blocks), blocks, geometry.associativity
        )
    return stats_from_misses(blocks, misses)


def evaluate_many(
    trace,
    geometry: CacheGeometry,
    functions: Sequence[XorHashFunction],
) -> list[CacheStats]:
    """Exact stats for each of K candidate hash functions on one trace.

    ``trace`` may be a :class:`~repro.trace.trace.Trace` or a raw
    block-address array.  Every candidate is validated before any is
    simulated, then each runs through :func:`simulate`.
    """
    if hasattr(trace, "block_addresses"):
        blocks = trace.block_addresses(geometry.block_size)
    else:
        blocks = np.asarray(trace, dtype=np.uint64)
    for k, fn in enumerate(functions):
        if fn.m != geometry.index_bits:
            raise ValueError(
                f"candidate {k} produces {fn.m} index bits, geometry needs "
                f"{geometry.index_bits}"
            )
        if not fn.is_full_rank:
            # A rank-deficient function breaks the paper's bijectivity
            # requirement and must not be silently scored.
            raise ValueError(
                f"candidate {k} requires a full-rank hash function "
                f"(rank {fn.rank} < m={fn.m})"
            )
    return [simulate(blocks, geometry, XorIndexing(fn)) for fn in functions]


def simulate_capacity(blocks: np.ndarray, capacity_blocks: int) -> CacheStats:
    """Fully-associative LRU cache of ``capacity_blocks`` frames.

    The capacity class of the three-Cs split (Table 3's ``FA`` column
    is :func:`simulate` on a one-set geometry, the same LRU count).
    The paper uses FA-LRU as a reference point, not a bound:
    LRU replacement is itself sub-optimal, so full associativity is not
    an upper bound on what indexing can achieve (optimized hash
    functions sometimes beat it).  Capacity need not be a power of two
    (unlike :class:`CacheGeometry`).
    """
    if capacity_blocks < 1:
        raise ValueError(f"capacity must be >= 1 block, got {capacity_blocks}")
    blocks = np.asarray(blocks, dtype=np.uint64)
    if len(blocks) == 0:
        return CacheStats(accesses=0, misses=0)
    misses = lru_miss_vector(None, blocks, capacity_blocks)
    return stats_from_misses(blocks, misses)


def simulate_banks(
    blocks: np.ndarray,
    bank_indexings: Sequence[IndexingPolicy],
    seed: int = 0,
) -> CacheStats:
    """Skewed cache: one frame per set per bank, distinct bank hashes.

    The related-work baseline (Seznec & Bodin, paper ref. [2]): two
    blocks conflicting in one bank rarely conflict in another.  All
    banks must produce the same number of sets, and there must be at
    least two.  A miss evicts from a bank drawn by Seznec's simple
    pseudo-random policy, seeded by ``seed`` so replays reproduce.
    """
    sets = bank_indexings[0].num_sets if bank_indexings else 0
    for i, policy in enumerate(bank_indexings):
        if policy.num_sets != sets:
            raise ValueError(
                f"bank {i} has {policy.num_sets} sets, expected {sets}"
            )
    blocks = np.asarray(blocks, dtype=np.uint64)
    if len(bank_indexings) >= 2 and len(blocks) == 0:
        return CacheStats(accesses=0, misses=0)
    bank_ids = [policy.set_index_array(blocks) for policy in bank_indexings]
    misses = skewed_miss_vector(bank_ids, blocks, seed=seed, num_sets=sets)
    return stats_from_misses(blocks, misses)

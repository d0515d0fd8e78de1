"""Scalar reference simulators: the oracles the engine is tested against.

One obvious per-access loop per cache organization — direct-mapped,
set-associative LRU, fully-associative LRU and skewed-associative.
They are slow on purpose: :mod:`repro.cache.engine` must return the
same :class:`~repro.cache.stats.CacheStats` as these loops, bit for
bit, and the property tests and ``benchmarks/bench_engine.py`` hold it
to that.  Nothing in the package simulates through them.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import IndexingPolicy, ModuloIndexing
from repro.cache.stats import CacheStats

__all__ = [
    "simulate_direct_mapped_scalar",
    "simulate_set_associative_scalar",
    "simulate_fully_associative_scalar",
    "simulate_skewed_scalar",
]


def simulate_direct_mapped_scalar(
    blocks: np.ndarray, indexing: IndexingPolicy
) -> CacheStats:
    """Reference implementation: one frame per set, sequential replay."""
    frames: dict[int, int] = {}
    seen: set[int] = set()
    misses = 0
    compulsory = 0
    for block in np.asarray(blocks, dtype=np.uint64):
        block = int(block)
        index = indexing.set_index(block)
        tag = indexing.tag(block)
        if frames.get(index) != tag:
            misses += 1
            frames[index] = tag
            if block not in seen:
                compulsory += 1
        seen.add(block)
    return CacheStats(accesses=len(blocks), misses=misses, compulsory=compulsory)


def simulate_set_associative_scalar(
    blocks: np.ndarray,
    geometry: CacheGeometry,
    indexing: IndexingPolicy | None = None,
) -> CacheStats:
    """Reference implementation: sequential replay, one LRU per set."""
    if indexing is None:
        indexing = ModuloIndexing(geometry.index_bits)
    if indexing.num_sets != geometry.num_sets:
        raise ValueError(
            f"indexing produces {indexing.num_sets} sets but geometry has "
            f"{geometry.num_sets}"
        )
    ways = geometry.associativity
    blocks = np.asarray(blocks, dtype=np.uint64)
    if len(blocks) == 0:
        return CacheStats(accesses=0, misses=0)
    indices = indexing.set_index_array(blocks)
    tags = indexing.tag_array(blocks)
    sets: dict[int, OrderedDict] = {}
    seen: set[int] = set()
    misses = 0
    compulsory = 0
    for i in range(len(blocks)):
        index = int(indices[i])
        tag = int(tags[i])
        lru = sets.get(index)
        if lru is None:
            lru = OrderedDict()
            sets[index] = lru
        if tag in lru:
            lru.move_to_end(tag)
        else:
            misses += 1
            block = int(blocks[i])
            if block not in seen:
                compulsory += 1
                seen.add(block)
            if len(lru) >= ways:
                lru.popitem(last=False)
            lru[tag] = None
    return CacheStats(accesses=len(blocks), misses=misses, compulsory=compulsory)


def simulate_fully_associative_scalar(
    blocks: np.ndarray, capacity_blocks: int
) -> CacheStats:
    """Reference implementation: one OrderedDict, sequential replay."""
    if capacity_blocks < 1:
        raise ValueError(f"capacity must be >= 1 block, got {capacity_blocks}")
    lru: OrderedDict[int, None] = OrderedDict()
    seen: set[int] = set()
    misses = 0
    compulsory = 0
    for block in np.asarray(blocks, dtype=np.uint64):
        block = int(block)
        if block in lru:
            lru.move_to_end(block)
        else:
            misses += 1
            if block not in seen:
                compulsory += 1
                seen.add(block)
            if len(lru) >= capacity_blocks:
                lru.popitem(last=False)
            lru[block] = None
    return CacheStats(accesses=len(blocks), misses=misses, compulsory=compulsory)


def simulate_skewed_scalar(
    blocks: np.ndarray,
    bank_indexings: list[IndexingPolicy],
    seed: int = 0,
) -> CacheStats:
    """Reference implementation: sequential replay over dict banks."""
    if len(bank_indexings) < 2:
        raise ValueError("a skewed cache needs at least two banks")
    sets = bank_indexings[0].num_sets
    for i, pol in enumerate(bank_indexings):
        if pol.num_sets != sets:
            raise ValueError(
                f"bank {i} has {pol.num_sets} sets, expected {sets}"
            )
    blocks = np.asarray(blocks, dtype=np.uint64)
    if len(blocks) == 0:
        return CacheStats(accesses=0, misses=0)
    num_banks = len(bank_indexings)
    indices = [pol.set_index_array(blocks) for pol in bank_indexings]
    # Banks store full block addresses: with per-bank hash functions a
    # common compressed tag would not be bijective, so real skewed
    # caches widen the tag; storing the block address models that.
    banks = [dict() for _ in range(num_banks)]
    rng = np.random.default_rng(seed)
    victims = rng.integers(0, num_banks, size=len(blocks))
    seen: set[int] = set()
    misses = 0
    compulsory = 0
    for i in range(len(blocks)):
        block = int(blocks[i])
        hit = False
        for b in range(num_banks):
            if banks[b].get(int(indices[b][i])) == block:
                hit = True
                break
        if not hit:
            misses += 1
            if block not in seen:
                compulsory += 1
                seen.add(block)
            victim = int(victims[i])
            banks[victim][int(indices[victim][i])] = block
    return CacheStats(accesses=len(blocks), misses=misses, compulsory=compulsory)

"""Tests for LRU set-associative simulation."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.engine import simulate
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import ModuloIndexing
from tests.conftest import block_traces
from tests.oracles.cache import (
    simulate_direct_mapped_scalar,
    simulate_set_associative_scalar,
)


class TestAgainstDirectMapped:
    @settings(max_examples=40, deadline=None)
    @given(block_traces())
    def test_one_way_equals_direct_mapped(self, blocks):
        geometry = CacheGeometry(128, block_size=4, associativity=1)
        pol = ModuloIndexing(geometry.index_bits)
        one_way_lru = simulate_set_associative_scalar(blocks, geometry, pol)
        assert one_way_lru == simulate_direct_mapped_scalar(blocks, pol)
        assert simulate(blocks, geometry, pol) == one_way_lru


class TestLruBehaviour:
    def test_two_way_absorbs_pingpong(self):
        blocks = np.tile(np.array([0, 32], dtype=np.uint64), 50)
        geometry = CacheGeometry(256, block_size=4, associativity=2)
        stats = simulate(blocks, geometry)
        assert stats.misses == 2  # both fit in one 2-way set

    def test_lru_eviction_order(self):
        # Set 0 of a 2-way cache: blocks 0, 32, 64 rotate; LRU evicts.
        geometry = CacheGeometry(256, block_size=4, associativity=2)
        blocks = np.array([0, 32, 64, 0], dtype=np.uint64)
        stats = simulate(blocks, geometry)
        # access 0 (miss), 32 (miss), 64 (miss, evicts 0), 0 (miss again)
        assert stats.misses == 4

    def test_hit_refreshes_recency(self):
        geometry = CacheGeometry(256, block_size=4, associativity=2)
        blocks = np.array([0, 32, 0, 64, 0], dtype=np.uint64)
        # 0,32 miss; 0 hit (refresh); 64 miss evicts 32 (LRU); 0 hit.
        stats = simulate(blocks, geometry)
        assert stats.misses == 3

    def test_empty(self):
        geometry = CacheGeometry(256, block_size=4, associativity=2)
        stats = simulate(np.zeros(0, dtype=np.uint64), geometry)
        assert stats.accesses == 0

    def test_indexing_set_count_mismatch(self):
        geometry = CacheGeometry(256, block_size=4, associativity=2)
        with pytest.raises(ValueError):
            simulate(
                np.zeros(1, dtype=np.uint64), geometry, ModuloIndexing(3)
            )


class TestAssociativityMonotonicityOnLoops:
    @settings(max_examples=25, deadline=None)
    @given(block_traces(max_block=64))
    def test_more_ways_never_hurt_single_set(self, blocks):
        """With one set (fully associative), more capacity never hurts —
        LRU stack inclusion."""
        small = simulate(
            blocks, CacheGeometry(32, block_size=4, associativity=8),
            ModuloIndexing(0),
        )
        large = simulate(
            blocks, CacheGeometry(64, block_size=4, associativity=16),
            ModuloIndexing(0),
        )
        assert large.misses <= small.misses

"""Tests for direct-mapped simulation (engine vs scalar oracle)."""

import numpy as np
from hypothesis import given, settings

from repro.cache.engine import direct_mapped_miss_vector, simulate
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import ModuloIndexing, XorIndexing
from repro.cache.reference import simulate_direct_mapped_scalar
from tests.conftest import block_traces, hash_functions

#: Direct-mapped geometries of 16, 32 and 256 sets (4-byte blocks).
DM16 = CacheGeometry.direct_mapped(16 * 4)
DM32 = CacheGeometry.direct_mapped(32 * 4)
DM256 = CacheGeometry.direct_mapped(256 * 4)


class TestKnownCases:
    def test_empty_trace(self):
        stats = simulate(np.zeros(0, dtype=np.uint64), DM16, ModuloIndexing(4))
        assert stats.accesses == 0 and stats.misses == 0

    def test_all_hits_after_first(self):
        blocks = np.zeros(10, dtype=np.uint64)
        stats = simulate(blocks, DM16, ModuloIndexing(4))
        assert stats.misses == 1 and stats.compulsory == 1

    def test_pingpong_conflict(self):
        """Two blocks with equal index evict each other every access."""
        blocks = np.array([0, 16, 0, 16, 0, 16], dtype=np.uint64)
        stats = simulate(blocks, DM16, ModuloIndexing(4))
        assert stats.misses == 6
        assert stats.compulsory == 2

    def test_distinct_sets_no_conflict(self):
        blocks = np.array([0, 1, 0, 1, 0, 1], dtype=np.uint64)
        stats = simulate(blocks, DM16, ModuloIndexing(4))
        assert stats.misses == 2

    def test_miss_vector_positions(self):
        blocks = np.array([0, 16, 0, 1], dtype=np.uint64)
        set_ids = ModuloIndexing(4).set_index_array(blocks)
        misses = direct_mapped_miss_vector(set_ids, blocks)
        assert misses.tolist() == [True, True, True, True]
        blocks = np.array([0, 1, 0, 1], dtype=np.uint64)
        set_ids = ModuloIndexing(4).set_index_array(blocks)
        misses = direct_mapped_miss_vector(set_ids, blocks)
        assert misses.tolist() == [True, True, False, False]


class TestVectorizedEqualsScalar:
    @settings(max_examples=60, deadline=None)
    @given(block_traces())
    def test_modulo_indexing(self, blocks):
        pol = ModuloIndexing(5)
        assert simulate(blocks, DM32, pol) == simulate_direct_mapped_scalar(
            blocks, pol
        )

    @settings(max_examples=40, deadline=None)
    @given(block_traces(max_block=1 << 12), hash_functions(n=12, m=5))
    def test_xor_indexing(self, blocks, fn):
        pol = XorIndexing(fn)
        assert simulate(blocks, DM32, pol) == simulate_direct_mapped_scalar(
            blocks, pol
        )

    @settings(max_examples=40, deadline=None)
    @given(block_traces())
    def test_miss_vector_sums_to_misses(self, blocks):
        pol = ModuloIndexing(5)
        vector = direct_mapped_miss_vector(pol.set_index_array(blocks), blocks)
        assert int(vector.sum()) == simulate(blocks, DM32, pol).misses


class TestIndexingMatters:
    def test_xor_fixes_pingpong(self):
        """The canonical result: conflict pairs separated by hashing."""
        from repro.gf2.hashfn import XorHashFunction

        blocks = np.tile(np.array([0, 256], dtype=np.uint64), 50)
        modulo = simulate(blocks, DM256, ModuloIndexing(8))
        assert modulo.misses == 100
        # s0 = a0 ^ a8 maps block 256 (bit 8) to set 1 instead of 0.
        fn = XorHashFunction.from_sigma(16, 8, [8] + [None] * 7)
        hashed = simulate(blocks, DM256, XorIndexing(fn))
        assert hashed.misses == 2

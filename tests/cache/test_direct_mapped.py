"""Tests for direct-mapped simulation (engine vs scalar oracle)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.engine import lru_miss_vector, simulate
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import BitSelectIndexing, ModuloIndexing, XorIndexing
from tests.conftest import block_traces, hash_functions
from tests.oracles.cache import simulate_direct_mapped_scalar

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
        misses = lru_miss_vector(set_ids, blocks, 1)
        assert misses.tolist() == [True, True, True, True]
        blocks = np.array([0, 1, 0, 1], dtype=np.uint64)
        set_ids = ModuloIndexing(4).set_index_array(blocks)
        misses = lru_miss_vector(set_ids, blocks, 1)
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
    @given(
        block_traces(max_block=1 << 12),
        st.lists(st.integers(0, 11), min_size=5, max_size=5, unique=True),
    )
    def test_bit_select_indexing(self, blocks, bits):
        pol = BitSelectIndexing(12, bits)
        assert simulate(blocks, DM32, pol) == simulate_direct_mapped_scalar(
            blocks, pol
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, (1 << 64) - 1), st.integers(0, 8))
    def test_empty_and_one_access(self, block, m):
        geometry = CacheGeometry.direct_mapped((1 << m) * 4)
        pol = ModuloIndexing(m)
        for blocks in (np.zeros(0, dtype=np.uint64), np.array([block], np.uint64)):
            assert simulate(blocks, geometry, pol) == (
                simulate_direct_mapped_scalar(blocks, pol)
            )

    @settings(max_examples=20, deadline=None)
    @given(block_traces(max_block=1 << 24))
    def test_index_wider_than_16_bits(self, blocks):
        """18-bit set ids stay 32-bit: the sort skips the radix narrowing."""
        blocks = np.append(blocks, np.uint64((1 << 18) - 1))
        pol = ModuloIndexing(18)
        geometry = CacheGeometry.direct_mapped((1 << 18) * 4)
        assert simulate(blocks, geometry, pol) == simulate_direct_mapped_scalar(
            blocks, pol
        )

    @settings(max_examples=40, deadline=None)
    @given(block_traces())
    def test_miss_vector_sums_to_misses(self, blocks):
        pol = ModuloIndexing(5)
        vector = lru_miss_vector(pol.set_index_array(blocks), blocks, 1)
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

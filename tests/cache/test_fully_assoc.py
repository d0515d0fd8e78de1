"""Tests for fully-associative LRU simulation of any capacity."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.engine import simulate_capacity
from tests.conftest import block_traces


class TestKnownCases:
    def test_capacity_one(self):
        blocks = np.array([0, 1, 0, 0, 1], dtype=np.uint64)
        stats = simulate_capacity(blocks, 1)
        assert stats.misses == 4  # only the repeated 0 hits

    def test_working_set_fits(self):
        blocks = np.tile(np.arange(4, dtype=np.uint64), 10)
        stats = simulate_capacity(blocks, 4)
        assert stats.misses == 4  # compulsory only

    def test_cyclic_thrash(self):
        """The classic LRU pathology: loop of size capacity+1 never hits."""
        blocks = np.tile(np.arange(5, dtype=np.uint64), 10)
        stats = simulate_capacity(blocks, 4)
        assert stats.misses == 50

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            simulate_capacity(np.zeros(1, dtype=np.uint64), 0)


class TestLruInclusion:
    @settings(max_examples=30, deadline=None)
    @given(block_traces(max_block=128))
    def test_larger_capacity_never_misses_more(self, blocks):
        """LRU's stack property: miss counts are monotone in capacity."""
        small = simulate_capacity(blocks, 4)
        large = simulate_capacity(blocks, 16)
        assert large.misses <= small.misses

    @settings(max_examples=30, deadline=None)
    @given(block_traces())
    def test_compulsory_is_unique_blocks(self, blocks):
        stats = simulate_capacity(blocks, 8)
        assert stats.compulsory == len(np.unique(blocks))
        assert stats.misses >= stats.compulsory

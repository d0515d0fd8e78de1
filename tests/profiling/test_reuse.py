"""Tests for reuse-distance computation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.engine.core import program_order_links
from repro.profiling.reuse import reuse_distance_histogram, reuse_distances
from tests.conftest import block_traces


def _naive_reuse_distances(blocks):
    """Oracle: explicit scan for distinct blocks between occurrences."""
    out = []
    last = {}
    for i, b in enumerate(blocks):
        b = int(b)
        if b not in last:
            out.append(-1)
        else:
            seen = set()
            for j in range(last[b] + 1, i):
                seen.add(int(blocks[j]))
            out.append(len(seen))
        last[b] = i
    return np.array(out, dtype=np.int64)


class TestReuseDistances:
    def test_known_sequence(self):
        blocks = np.array([1, 2, 1, 2, 3, 1], dtype=np.uint64)
        assert reuse_distances(blocks).tolist() == [-1, -1, 1, 1, -1, 2]

    def test_immediate_reuse_is_zero(self):
        blocks = np.array([5, 5, 5], dtype=np.uint64)
        assert reuse_distances(blocks).tolist() == [-1, 0, 0]

    @settings(max_examples=40, deadline=None)
    @given(block_traces(max_len=120))
    def test_matches_naive_oracle(self, blocks):
        assert (reuse_distances(blocks) == _naive_reuse_distances(blocks)).all()

    def test_histogram_pools_above_max(self):
        blocks = np.array([1, 2, 3, 4, 1], dtype=np.uint64)
        hist = reuse_distance_histogram(blocks, max_distance=2)
        assert hist[-1] == 4
        assert hist[2] == 1  # distance 3 pooled at 2


def _dict_links(blocks):
    """Oracle: previous/next same-block access by dict lookups."""
    count = len(blocks)
    prev = [-1] * count
    nxt = [count] * count
    last = {}
    for t, b in enumerate(blocks.tolist()):
        if b in last:
            prev[t] = last[b]
            nxt[last[b]] = t
        last[b] = t
    return prev, nxt


class TestProgramOrderLinks:
    """The occurrence links every profile and reuse walk runs on."""

    @settings(max_examples=60, deadline=None)
    @given(block_traces(max_len=150, max_block=1 << 64), st.integers(48, 63))
    def test_matches_dict_reference_above_2_48(self, blocks, shift):
        blocks = blocks | np.uint64(1 << shift)
        prev, nxt = program_order_links(blocks)
        want_prev, want_nxt = _dict_links(blocks)
        assert prev.tolist() == want_prev
        assert nxt.tolist() == want_nxt

    def test_empty(self):
        prev, nxt = program_order_links(np.zeros(0, dtype=np.uint64))
        assert len(prev) == 0 and len(nxt) == 0

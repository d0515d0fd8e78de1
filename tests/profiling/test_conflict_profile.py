"""Tests for the Fig. 1 profiling pass."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.profiling import conflict_profile
from repro.profiling.conflict_profile import (
    ConflictProfile,
    profile_blocks,
    profile_trace,
)
from repro.profiling.reuse import reuse_distances
from repro.trace.trace import Trace
from tests.conftest import block_traces
from tests.oracles.profile import (
    LRUStack,
    profile_blocks_reference,
    profile_blocks_slotted,
)


def assert_profiles_equal(a: ConflictProfile, b: ConflictProfile) -> None:
    assert (a.counts == b.counts).all()
    assert a.compulsory == b.compulsory
    assert a.capacity == b.capacity
    assert a.beyond_window == b.beyond_window
    assert a.accesses == b.accesses


class TestHandWorkedExample:
    def test_figure1_by_hand(self):
        """Trace: A B A with plenty of capacity.

        The second access to A sees B above it on the stack; misses(A^B)
        is incremented once; both first touches are compulsory.
        """
        a, b = 0b0101, 0b0110
        profile = profile_blocks(np.array([a, b, a], dtype=np.uint64), 16, 4)
        assert profile.compulsory == 2
        assert profile.capacity == 0
        assert profile.weight_of(a ^ b) == 1
        assert profile.total_weight == 1

    def test_repeated_conflict_accumulates(self):
        a, b = 3, 5
        blocks = np.array([a, b] * 10, dtype=np.uint64)
        profile = profile_blocks(blocks, 16, 4)
        # After the compulsory pair, every access sees the other block.
        assert profile.weight_of(a ^ b) == 18

    def test_capacity_filter(self):
        """Reuse distance >= capacity means no conflict vectors."""
        blocks = np.array([0, 1, 2, 3, 0], dtype=np.uint64)
        tight = profile_blocks(blocks, 3, 4)
        assert tight.capacity == 1 and tight.total_weight == 0
        roomy = profile_blocks(blocks, 4, 4)
        assert roomy.capacity == 0 and roomy.total_weight == 3

    def test_beyond_window_pairs(self):
        """Blocks equal in the hashed bits land in beyond_window."""
        blocks = np.array([0, 1 << 4, 0], dtype=np.uint64)
        profile = profile_blocks(blocks, 16, 4)
        assert profile.beyond_window == 1
        assert profile.total_weight == 0

    def test_vector_truncation(self):
        blocks = np.array([0, 0b10011, 0], dtype=np.uint64)
        profile = profile_blocks(blocks, 16, 4)
        assert profile.weight_of(0b0011) == 1


class TestFastEqualsReference:
    @settings(max_examples=50, deadline=None)
    @given(block_traces(max_block=1 << 10), st.integers(min_value=1, max_value=64))
    def test_equivalence(self, blocks, capacity):
        fast = profile_blocks(blocks, capacity, 10)
        slow = profile_blocks_reference(blocks, capacity, 10)
        assert_profiles_equal(fast, slow)

    @settings(max_examples=50, deadline=None)
    @given(
        block_traces(max_block=1 << 10),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=48),
    )
    def test_equivalence_any_chunking(self, blocks, capacity, chunk_size):
        """Chunk boundaries must not be observable in the result."""
        fast = profile_blocks(blocks, capacity, 10, chunk_size=chunk_size)
        slow = profile_blocks_reference(blocks, capacity, 10)
        assert_profiles_equal(fast, slow)

    @settings(max_examples=30, deadline=None)
    @given(block_traces(max_block=1 << 10), st.integers(min_value=1, max_value=64))
    def test_slotted_oracle_agrees(self, blocks, capacity):
        """The retired per-access kernel stays a valid second oracle."""
        assert_profiles_equal(
            profile_blocks_slotted(blocks, capacity, 10),
            profile_blocks_reference(blocks, capacity, 10),
        )

    @pytest.mark.parametrize("chunk_size", [1, 3, 1 << 12])
    def test_capacity_one(self, chunk_size):
        """capacity_blocks=1: every reuse is a capacity miss."""
        blocks = np.array([1, 2, 1, 2, 3, 3, 1], dtype=np.uint64)
        fast = profile_blocks(blocks, 1, 8, chunk_size=chunk_size)
        assert_profiles_equal(fast, profile_blocks_reference(blocks, 1, 8))
        assert fast.total_weight == 0

    @pytest.mark.parametrize("chunk_size", [1, 7, 1 << 12])
    def test_all_duplicates(self, chunk_size):
        """A single block repeated: no vectors, one compulsory miss."""
        blocks = np.full(257, 42, dtype=np.uint64)
        fast = profile_blocks(blocks, 4, 8, chunk_size=chunk_size)
        assert_profiles_equal(fast, profile_blocks_reference(blocks, 4, 8))
        assert fast.compulsory == 1 and fast.total_weight == 0

    def test_empty_trace(self):
        fast = profile_blocks(np.zeros(0, dtype=np.uint64), 4, 8)
        assert fast.accesses == 0 and fast.total_weight == 0
        assert fast.compulsory == 0 and fast.capacity == 0

    @pytest.mark.parametrize("chunk_size", [2, 1 << 12])
    def test_near_2_64_addresses(self, chunk_size):
        """Blocks with bit 63 set must not wrap into negative int64
        territory on any path (uint64 end to end)."""
        blocks = np.array(
            [2**64 - 8, 2**63, 2**64 - 8, 2**63 + 1, 2**63, 2**64 - 8],
            dtype=np.uint64,
        )
        reference = profile_blocks_reference(blocks, 16, 10)
        assert_profiles_equal(
            profile_blocks(blocks, 16, 10, chunk_size=chunk_size), reference
        )
        assert_profiles_equal(profile_blocks_slotted(blocks, 16, 10), reference)
        assert reference.total_weight > 0

    def test_python_list_input_with_wide_addresses(self):
        """Plain-list input with values past int64 must profile, not
        overflow (the old int64 coercion raised OverflowError)."""
        blocks = [2**64 - 8, 2**63, 2**64 - 8]
        fast = profile_blocks(blocks, 16, 10)
        assert_profiles_equal(fast, profile_blocks_reference(blocks, 16, 10))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=2**63 - 4, max_value=2**64 - 1),
            min_size=0,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_equivalence_near_2_64(self, values, capacity):
        blocks = np.array(values, dtype=np.uint64)
        assert_profiles_equal(
            profile_blocks(blocks, capacity, 10, chunk_size=5),
            profile_blocks_reference(blocks, capacity, 10),
        )


def _one_pass(blocks, capacities, n, chunk_size=None):
    """Every capacity of ``capacities`` from one profile_blocks call."""
    siblings = dict.fromkeys(capacities)
    largest = profile_blocks(blocks, max(capacities), n, chunk_size, siblings=siblings)
    assert_profiles_equal(largest, siblings[max(capacities)])
    return siblings


_capacity_sets = st.lists(
    st.integers(min_value=1, max_value=64), min_size=1, max_size=6
).map(lambda caps: caps + [1])  # always include the degenerate capacity


class TestMultiCapacity:
    """One pass profiles every requested capacity (Mattson inclusion)."""

    @settings(max_examples=60, deadline=None)
    @given(
        block_traces(max_block=1 << 12),
        _capacity_sets,
        st.one_of(st.none(), st.integers(min_value=1, max_value=48)),
        st.sampled_from([4, 10, 20]),
    )
    def test_each_capacity_equals_reference(self, blocks, capacities, chunk_size, n):
        profiles = _one_pass(blocks, capacities, n, chunk_size)
        assert set(profiles) == set(capacities)
        for capacity, profile in profiles.items():
            assert_profiles_equal(
                profile, profile_blocks_reference(blocks, capacity, n)
            )

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=2**64 - 48, max_value=2**64 - 1),
            min_size=0,
            max_size=80,
        ),
        _capacity_sets,
        st.integers(min_value=1, max_value=9),
    )
    def test_near_2_64_addresses(self, values, capacities, chunk_size):
        blocks = np.array(values, dtype=np.uint64)
        for capacity, profile in _one_pass(blocks, capacities, 10, chunk_size).items():
            assert_profiles_equal(
                profile, profile_blocks_reference(blocks, capacity, 10)
            )

    def test_siblings_unsorted_and_duplicated(self):
        blocks = np.array([0, 1, 2, 3, 0, 2, 1, 1, 3, 0], dtype=np.uint64)
        siblings = {8: None, 3: None, 2: None, 1: None}
        largest = profile_blocks(blocks, 3, 4, siblings=siblings)
        assert_profiles_equal(largest, profile_blocks_reference(blocks, 3, 4))
        for capacity in (1, 2, 3, 8):
            assert_profiles_equal(
                siblings[capacity], profile_blocks_reference(blocks, capacity, 4)
            )

    def test_rejects_zero_capacity_sibling(self):
        with pytest.raises(ValueError):
            profile_blocks(np.arange(4, dtype=np.uint64), 4, 4, siblings={0: None})


@st.composite
def working_set_traces(draw, max_block: int = 1 << 10):
    """A long-lived working set cycled in order, interleaved with bursts
    of short-lived blocks that are re-referenced a few times and then
    dropped.  Every chunk then holds slots that outlive it (the working
    set, and dropped blocks that are never re-referenced), slots that
    retire inside it and its own slots."""
    hot = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_block - 1),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    steps = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=3)),
            min_size=1,
            max_size=300,
        )
    )
    salt = draw(st.integers(min_value=0, max_value=max_block - 1))
    trace, cursor = [], 0
    for step, (is_hot, pick) in enumerate(steps):
        if is_hot:
            trace.append(hot[cursor % len(hot)])
            cursor += 1
        else:
            # Four short-lived blocks per stretch of eight steps.
            trace.append(max_block + ((step // 8 * 4 + pick) ^ salt))
    return np.array(trace, dtype=np.uint64)


#: Kernel tunings small enough that test-sized traces take every path:
#: single-access spans, broadcast and gathered spans side by side, one
#: cut per distinct start, and buffers and gather batches a few cells
#: wide.
_TUNINGS = st.fixed_dictionaries(
    {
        "_SPAN": st.integers(min_value=1, max_value=8),
        "_SPAN_WORK": st.sampled_from([0, 8, 64]),
        "_CUT_COST": st.sampled_from([1, 16, 1500]),
        "_PAIR_BUFFER": st.sampled_from([1, 7, 64, 1 << 21]),
        "_GATHER_CELLS": st.sampled_from([1, 5, 1 << 15]),
    }
)


class TestPersistentTransientSplit:
    """Pairs split into broadcast persistent suffixes and gathered
    transient candidates: the split must not be observable."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(working_set_traces(), block_traces(max_block=1 << 12)),
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(min_value=1, max_value=48), min_size=1, max_size=3),
        _TUNINGS,
    )
    def test_each_capacity_equals_reference(self, blocks, chunk_size, capacities, tuning):
        with mock.patch.multiple(conflict_profile, **tuning):
            profiles = _one_pass(blocks, capacities, 10, chunk_size)
        for capacity, profile in profiles.items():
            assert_profiles_equal(
                profile, profile_blocks_reference(blocks, capacity, 10)
            )

    def test_lame_small_digests_pinned(self):
        """The densest Table-2 kernel keeps the digests the gather
        kernel it replaced produced (block size 4, n=16, 1/4/16 KB)."""
        from repro.api import TraceSpec

        blocks = TraceSpec("mibench", "lame").resolve().block_addresses(4)
        profiles = _one_pass(blocks, [256, 1024, 4096], 16)
        pinned = {
            256: ("8dcc33e5bb41373df775c02787e8b2915f5cb3efc5a6179f7646d28d67cb6bd3", 159852),
            1024: ("b3984521ea8bda3cc72cffd5b4be97b2d00a03b93afc445d0f1534f219b81495", 2373900),
            4096: ("b83a9f3a46acb30702d7286d19d547cc485d1d5d8bc49fb24ef56f805aeb4ec2", 93716120),
        }
        assert {
            capacity: (p.digest, p.total_weight) for capacity, p in profiles.items()
        } == pinned


def _lru_depths(blocks):
    """Oracle: each access's depth read off an explicit LRU stack."""
    stack = LRUStack()
    depths = []
    for raw in blocks:
        block = int(raw)
        depth = stack.depth_of(block)
        depths.append(-1 if depth is None else depth)
        stack.push(block)
    return np.array(depths, dtype=np.int64)


class TestReuseDistancesMatchLRUStack:
    @settings(max_examples=60, deadline=None)
    @given(
        block_traces(max_block=1 << 6),
        st.one_of(st.just(1 << 12), st.integers(min_value=1, max_value=40)),
    )
    def test_equals_lru_stack(self, blocks, chunk_size):
        depths = reuse_distances(blocks, chunk_size)
        assert depths.tolist() == _lru_depths(blocks).tolist()

    def test_hand_worked(self):
        # A B C B A: the second B sees C; the second A sees B and C.
        blocks = np.array([1, 2, 3, 2, 1], dtype=np.uint64)
        assert reuse_distances(blocks).tolist() == [
            -1, -1, -1, 1, 2,
        ]

    def test_empty(self):
        assert len(reuse_distances(np.zeros(0, dtype=np.uint64))) == 0


class TestProfileObject:
    def test_validation_shape(self):
        with pytest.raises(ValueError):
            ConflictProfile(4, np.zeros(5, dtype=np.int64))

    def test_validation_zero_vector(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[0] = 3
        with pytest.raises(ValueError):
            ConflictProfile(4, counts)

    def test_support(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[3] = 7
        counts[9] = 2
        profile = ConflictProfile(4, counts)
        vectors, weights = profile.support()
        assert vectors.tolist() == [3, 9]
        assert weights.tolist() == [7, 2]
        assert profile.num_distinct_vectors == 2
        assert profile.total_weight == 9

    def test_top_vectors(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[3] = 7
        counts[9] = 2
        profile = ConflictProfile(4, counts)
        assert profile.top_vectors(1) == [(3, 7)]

    def test_top_vectors_ties_by_ascending_vector(self):
        """Ties must not depend on the sort NumPy picks for the CPU."""
        counts = np.zeros(1 << 8, dtype=np.int64)
        tied = np.arange(1, 81)
        counts[tied] = 5
        counts[200] = 9
        counts[100] = 5
        profile = ConflictProfile(8, counts)
        expected = [(200, 9)] + [(int(v), 5) for v in [*tied, 100]]
        assert profile.top_vectors(82) == expected
        assert profile.top_vectors(20) == expected[:20]

    def test_merge(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[5] = 1
        a = ConflictProfile(4, counts.copy(), compulsory=1, capacity=2, accesses=10)
        b = ConflictProfile(4, counts.copy(), compulsory=3, capacity=4, accesses=20)
        merged = a.merged_with(b)
        assert merged.weight_of(5) == 2
        assert merged.compulsory == 4
        assert merged.capacity == 6
        assert merged.accesses == 30

    def test_merge_window_mismatch(self):
        a = ConflictProfile(4, np.zeros(16, dtype=np.int64))
        b = ConflictProfile(5, np.zeros(32, dtype=np.int64))
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_save_load_round_trip(self, tmp_path):
        counts = np.zeros(16, dtype=np.int64)
        counts[7] = 11
        profile = ConflictProfile(
            4, counts, compulsory=2, capacity=3, accesses=50, beyond_window=9
        )
        path = tmp_path / "profile.npz"
        profile.save(path)
        loaded = ConflictProfile.load(path)
        assert loaded.n == profile.n
        assert (loaded.counts == profile.counts).all()
        assert loaded.compulsory == 2 and loaded.capacity == 3 and loaded.accesses == 50
        assert loaded.beyond_window == 9

    def test_load_legacy_archive_without_beyond_window(self, tmp_path):
        """Archives written before beyond_window was persisted (a
        three-entry meta vector) must still load."""
        counts = np.zeros(16, dtype=np.int64)
        counts[3] = 5
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path, n=4, counts=counts, meta=np.array([1, 2, 30], dtype=np.int64)
        )
        loaded = ConflictProfile.load(path)
        assert loaded.compulsory == 1 and loaded.capacity == 2 and loaded.accesses == 30
        assert loaded.beyond_window == 0

    def test_counts_are_immutable(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[7] = 11
        profile = ConflictProfile(4, counts)
        with pytest.raises(ValueError):
            profile.counts[3] = 1

    def test_digest_tracks_every_field(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[7] = 11
        profile = ConflictProfile(4, counts, beyond_window=1)
        same = ConflictProfile(4, counts.copy(), beyond_window=1)
        assert profile.digest == same.digest
        assert profile.digest != ConflictProfile(4, counts, beyond_window=2).digest
        other_counts = counts.copy()
        other_counts[7] = 12
        assert profile.digest != ConflictProfile(4, other_counts, beyond_window=1).digest

    def test_weight_of_bounds(self):
        profile = ConflictProfile(4, np.zeros(16, dtype=np.int64))
        with pytest.raises(ValueError):
            profile.weight_of(16)


class TestProfileTrace:
    def test_uses_geometry_blocks(self):
        trace = Trace([0, 1024, 0])  # byte addresses; blocks 0 and 256
        geometry = CacheGeometry.direct_mapped(4096)
        profile = profile_trace(trace, geometry, 16)
        assert profile.weight_of(256) == 1

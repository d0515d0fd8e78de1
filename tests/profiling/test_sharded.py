"""Tests for the out-of-core sharded profiler and n-way merge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.pipeline.context import PipelineContext
from repro.profiling.conflict_profile import ConflictProfile, profile_blocks
from repro.profiling.sharded import ShardPlan, run_sharded_profile
from repro.trace import Trace, save_trace_bin
from tests.conftest import block_traces
from tests.oracles.profile import profile_blocks_reference
from tests.profiling.test_conflict_profile import assert_profiles_equal


class TestShardPlan:
    def test_covers_exactly_once(self):
        plan = ShardPlan(100, 7)
        spans = [(s.start, s.stop) for s in plan]
        assert spans[0][0] == 0 and spans[-1][1] == 100
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start

    def test_shard_larger_than_trace(self):
        plan = ShardPlan(5, 100)
        assert len(plan) == 1
        assert (plan[0].start, plan[0].stop) == (0, 5)

    def test_empty_trace(self):
        assert len(ShardPlan(0, 10)) == 0

    def test_exact_multiple(self):
        plan = ShardPlan(20, 5)
        assert len(plan) == 4
        assert all(s.size == 5 for s in plan)

    def test_invalid_shard_size(self):
        with pytest.raises(ValueError):
            ShardPlan(10, 0)


class TestMerge:
    def test_single(self):
        p = profile_blocks(np.array([1, 2, 1], dtype=np.uint64), 4, 4)
        assert_profiles_equal(ConflictProfile.merge([p]), p)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ConflictProfile.merge([])

    def test_window_mismatch_rejected(self):
        blocks = np.array([1, 2], dtype=np.uint64)
        a = profile_blocks(blocks, 4, 4)
        b = profile_blocks(blocks, 4, 5)
        with pytest.raises(ValueError, match="window sizes differ"):
            ConflictProfile.merge([a, b])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(block_traces(max_len=60, max_block=1 << 8), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=16),
    )
    def test_merge_equals_chained_merged_with(self, traces, capacity):
        profiles = [profile_blocks(t, capacity, 8) for t in traces]
        merged = ConflictProfile.merge(profiles)
        chained = profiles[0]
        for p in profiles[1:]:
            chained = chained.merged_with(p)
        assert_profiles_equal(merged, chained)

    def test_merge_accepts_iterator(self):
        blocks = np.array([1, 2, 3, 1], dtype=np.uint64)
        profiles = [profile_blocks(blocks, 4, 4) for _ in range(3)]
        assert_profiles_equal(
            ConflictProfile.merge(iter(profiles)),
            ConflictProfile.merge(profiles),
        )


def _sharded(blocks, capacity, n, shard_size):
    """``run_sharded_profile`` over an in-memory trace whose addresses
    are ``blocks`` (1-byte blocks), profiled at ``capacity`` blocks."""
    trace = Trace(np.asarray(blocks, dtype=np.uint64))
    result = run_sharded_profile(
        trace, CacheGeometry(1, block_size=1), n,
        shard_size=shard_size, capacities=(capacity,),
    )
    return result.profiles[capacity]


class TestShardedEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        block_traces(max_block=1 << 10),
        st.integers(min_value=1, max_value=64),
        st.data(),
    )
    def test_matches_single_pass(self, blocks, capacity, data):
        shard_size = data.draw(
            st.integers(min_value=1, max_value=len(blocks) + 13)
        )
        single = profile_blocks(blocks, capacity, 10)
        sharded = _sharded(blocks, capacity, 10, shard_size=shard_size)
        assert_profiles_equal(sharded, single)

    def test_capacity_heavy(self):
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 2000, size=20_000, dtype=np.uint64)
        single = profile_blocks(blocks, 4, 12)
        assert single.capacity > 0
        sharded = _sharded(blocks, 4, 12, shard_size=777)
        assert_profiles_equal(sharded, single)

    def test_shard_size_one(self):
        blocks = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], dtype=np.uint64)
        assert_profiles_equal(
            _sharded(blocks, 4, 6, shard_size=1),
            profile_blocks(blocks, 4, 6),
        )

    def test_empty_trace(self):
        blocks = np.array([], dtype=np.uint64)
        assert_profiles_equal(
            _sharded(blocks, 4, 6, shard_size=10),
            profile_blocks(blocks, 4, 6),
        )


def _write_trace(tmp_path, accesses=6000, block_size=32, seed=0):
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, 500, size=accesses, dtype=np.uint64) * block_size
    trace = Trace(addresses, name="sharded-test")
    path = tmp_path / "trace.bin"
    save_trace_bin(trace, path)
    return Trace.open_mmap(path)


def _drop_merged(cache_dir):
    """Delete the stored merged profiles, as if the run that wrote the
    shards crashed before the merge was stored: the next run must walk
    the shards instead of serving the merge."""
    merged = sorted((cache_dir / "profile").rglob("*.npz"))
    assert merged
    for path in merged:
        path.unlink()


class TestRunShardedProfile:
    def test_mmap_trace_matches_single_pass(self, tmp_path):
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        result = run_sharded_profile(trace, geometry, 10, shard_size=700)
        single = profile_blocks(
            trace.block_addresses(32), geometry.num_sets, 10
        )
        assert_profiles_equal(result.profile, single)
        assert len(result.plan) == 9

    def test_in_memory_trace_supported(self):
        rng = np.random.default_rng(1)
        trace = Trace(rng.integers(0, 4000, size=3000, dtype=np.uint64) * 8)
        geometry = CacheGeometry(512, block_size=8)
        result = run_sharded_profile(trace, geometry, 8, shard_size=500)
        single = profile_blocks(trace.block_addresses(8), geometry.num_sets, 8)
        assert_profiles_equal(result.profile, single)

    def test_workers_match_serial(self, tmp_path):
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        serial = run_sharded_profile(trace, geometry, 10, shard_size=700, workers=1)
        parallel = run_sharded_profile(trace, geometry, 10, shard_size=700, workers=2)
        assert_profiles_equal(parallel.profile, serial.profile)

    def test_cold_then_warm_cache(self, tmp_path):
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        context = PipelineContext(tmp_path / "cache")
        cold = run_sharded_profile(trace, geometry, 10, shard_size=700, context=context)
        assert cold.recomputed_shards == len(cold.plan)
        assert cold.cached_shards == 0
        # Warm: the stored merged profile is served; no shard is read.
        warm = run_sharded_profile(trace, geometry, 10, shard_size=700, context=context)
        assert (warm.recomputed_shards, warm.cached_shards) == (0, 0)
        assert warm.recomputed_scans == 0
        assert_profiles_equal(warm.profile, cold.profile)
        # Without the merge, every shard is loaded and none recomputed.
        _drop_merged(tmp_path / "cache")
        walked = run_sharded_profile(
            trace, geometry, 10, shard_size=700,
            context=PipelineContext(tmp_path / "cache"),
        )
        assert walked.recomputed_shards == 0
        assert walked.cached_shards == len(cold.plan)
        assert walked.recomputed_scans == 0
        assert_profiles_equal(walked.profile, cold.profile)

    def test_partial_resume_recomputes_only_missing(self, tmp_path):
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        context = PipelineContext(tmp_path / "cache")
        cold = run_sharded_profile(trace, geometry, 10, shard_size=700, context=context)
        victims = sorted((tmp_path / "cache" / "shard-profile").rglob("*.npz"))
        assert len(victims) == len(cold.plan)
        victims[3].unlink()
        _drop_merged(tmp_path / "cache")
        resumed = run_sharded_profile(
            trace, geometry, 10, shard_size=700,
            context=PipelineContext(tmp_path / "cache"),
        )
        assert resumed.recomputed_shards == 1
        assert resumed.cached_shards == len(cold.plan) - 1
        assert_profiles_equal(resumed.profile, cold.profile)

    def test_shard_results_reused_across_contexts(self, tmp_path):
        """A fresh context (fresh memo) still resumes from disk."""
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        cold = run_sharded_profile(
            trace, geometry, 10, shard_size=700,
            context=PipelineContext(tmp_path / "cache"),
        )
        _drop_merged(tmp_path / "cache")
        fresh = run_sharded_profile(
            trace, geometry, 10, shard_size=700,
            context=PipelineContext(tmp_path / "cache"),
        )
        assert fresh.recomputed_shards == 0
        assert fresh.cached_shards == len(cold.plan)

    def test_context_profile_routes_through_shards(self, tmp_path):
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        sharded = PipelineContext(tmp_path / "a").profile(
            trace, geometry, 10, shard_size=700
        )
        plain = PipelineContext(tmp_path / "b").profile(trace, geometry, 10)
        assert_profiles_equal(sharded, plain)

    def test_different_shard_sizes_share_merged_profile(self, tmp_path):
        """The merged profile lands under the standard key, so a later
        non-sharded profile call is a cache hit."""
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        context = PipelineContext(tmp_path / "cache")
        sharded = context.profile(trace, geometry, 10, shard_size=700)
        fresh = PipelineContext(tmp_path / "cache")
        stats_before = fresh.cache_stats()
        plain = fresh.profile(trace, geometry, 10)
        assert_profiles_equal(plain, sharded)
        assert fresh.cache_stats()["profile"]["hits"] >= 1


def _nonzero(stats):
    return {
        kind: {event: count for event, count in events.items() if count}
        for kind, events in stats.items()
        if any(events.values())
    }


class TestOneDriver:
    """``run_sharded_profile`` serves every profile: the single pass is
    its one-shard plan, and ``capacities`` profiles several cache sizes
    per shard pass."""

    @settings(max_examples=40, deadline=None)
    @given(
        block_traces(max_len=120, max_block=1 << 10),
        st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
        st.data(),
    )
    def test_capacities_match_reference(self, blocks, log_capacities, data):
        capacities = sorted(1 << k for k in log_capacities)
        trace = Trace(blocks * np.uint64(4))
        primary = data.draw(st.sampled_from(capacities))
        geometry = CacheGeometry(primary * 4, block_size=4)
        total = len(blocks)
        non_divisor = next((k for k in range(2, total) if total % k), total + 1)
        random_size = data.draw(st.integers(min_value=1, max_value=total + 13))
        expected = {c: profile_blocks_reference(blocks, c, 8) for c in capacities}
        for shard_size in (1, non_divisor, random_size, total + 5, None):
            result = run_sharded_profile(
                trace, geometry, 8, shard_size=shard_size, capacities=capacities
            )
            assert sorted(result.profiles) == capacities
            assert result.profile is result.profiles[geometry.num_blocks]
            for capacity in capacities:
                assert_profiles_equal(result.profiles[capacity], expected[capacity])

    def test_one_shard_writes_only_the_profile(self, tmp_path):
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        cache_dir = tmp_path / "cache"
        cold_context = PipelineContext(cache_dir)
        cold = run_sharded_profile(
            trace, geometry, 10, shard_size=None, context=cold_context
        )
        assert len(cold.plan) == 1 and cold.recomputed_shards == 1
        assert _nonzero(cold_context.cache_stats()) == {
            "profile": {"misses": 1, "stores": 1}
        }
        # The profile and its digest memo; no shard artifact.
        assert sorted(path.name for path in cache_dir.iterdir()) == [
            "profile",
            "profile-memo",
        ]
        warm_context = PipelineContext(cache_dir)
        warm = run_sharded_profile(
            trace, geometry, 10, shard_size=None, context=warm_context
        )
        assert warm.recomputed_shards == 0 and warm.recomputed_scans == 0
        assert _nonzero(warm_context.cache_stats()) == {"profile": {"hits": 1}}
        assert_profiles_equal(warm.profile, cold.profile)

    def test_shard_larger_than_trace_is_the_single_pass(self, tmp_path):
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        context = PipelineContext(tmp_path / "cache")
        result = run_sharded_profile(
            trace, geometry, 10, shard_size=len(trace) + 1, context=context
        )
        assert len(result.plan) == 1
        assert sorted(path.name for path in (tmp_path / "cache").iterdir()) == [
            "profile",
            "profile-memo",
        ]
        assert_profiles_equal(
            result.profile,
            profile_blocks(trace.block_addresses(32), geometry.num_blocks, 10),
        )

    def test_multi_shard_stores_merged_profile(self, tmp_path):
        trace = _write_trace(tmp_path)
        geometry = CacheGeometry(1024, block_size=32)
        run_sharded_profile(
            trace, geometry, 10, shard_size=700,
            context=PipelineContext(tmp_path / "cache"),
        )
        fresh = PipelineContext(tmp_path / "cache")
        single = run_sharded_profile(
            trace, geometry, 10, shard_size=None, context=fresh
        )
        assert single.recomputed_shards == 0
        assert _nonzero(fresh.cache_stats()) == {"profile": {"hits": 1}}

"""Pipeline session tests: cached results must be bit-identical to
uncached ones, cold or warm, with or without a cache behind the
context."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache import engine
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import ModuloIndexing, XorIndexing
from repro.core.optimizer import optimize_for_trace
from repro.gf2.hashfn import XorHashFunction
from repro.pipeline import PipelineContext
from repro.pipeline.artifact_cache import cache_events, replayed
from repro.pipeline.context import NotCached, replay_only
from repro.profiling.conflict_profile import profile_trace
from repro.search.families import family_for_name
from repro.search.hill_climb import hill_climb_restarts
from repro.trace.trace import Trace
from tests.conftest import block_traces, hash_functions

N = 10  # hashed bits for the small property-test geometry


def make_trace(blocks):
    return Trace(np.asarray(blocks, dtype=np.uint64) * 4, name="prop")


class TestMemoryOnly:
    def test_memory_only_session(self, conflict_trace, geometry_1kb):
        """cache=None still memoizes within the session."""
        ctx = PipelineContext(None)
        first = ctx.profile(conflict_trace, geometry_1kb, 16)
        assert ctx.profile(conflict_trace, geometry_1kb, 16) is first
        assert ctx.cache_root is None and ctx.cache_stats() == {}


class TestBitIdentical:
    """Acceptance property: cached == uncached, exactly."""

    @settings(max_examples=20, deadline=None)
    @given(blocks=block_traces(max_block=1 << N), fn=hash_functions(n=N, m=5))
    def test_evaluate_cached_equals_engine(self, tmp_path_factory, blocks, fn):
        tmp = tmp_path_factory.mktemp("cache")
        trace = make_trace(blocks)
        geometry = CacheGeometry.direct_mapped((1 << 5) * 4)
        direct = engine.simulate(
            trace.block_addresses(4), geometry, XorIndexing(fn)
        )
        cold = PipelineContext(tmp).evaluate(trace, geometry, fn)
        warm = PipelineContext(tmp).evaluate(trace, geometry, fn)
        assert cold == direct and warm == direct

    @settings(max_examples=15, deadline=None)
    @given(blocks=block_traces(max_block=1 << N))
    def test_profile_cached_equals_direct(self, tmp_path_factory, blocks):
        tmp = tmp_path_factory.mktemp("cache")
        trace = make_trace(blocks)
        geometry = CacheGeometry.direct_mapped(128)
        direct = profile_trace(trace, geometry, N)
        cold = PipelineContext(tmp).profile(trace, geometry, N)
        warm = PipelineContext(tmp).profile(trace, geometry, N)
        for cached in (cold, warm):
            assert cached.digest == direct.digest
            assert (cached.counts == direct.counts).all()

    def test_optimize_cached_equals_uncached(self, conflict_trace, tmp_path):
        geometry = CacheGeometry.direct_mapped(1024)
        plain = optimize_for_trace(conflict_trace, geometry, family="2-in")
        # Without a context the optimizer runs on a cache-less one; it
        # must match the bare profiler, search and engine calls.
        profile = profile_trace(conflict_trace, geometry, 16)
        search = hill_climb_restarts(
            profile, family_for_name("2-in", 16, geometry.index_bits)
        )
        blocks = conflict_trace.block_addresses(geometry.block_size)
        assert plain.profile.digest == profile.digest
        assert plain.hash_function.columns == search.function.columns
        assert plain.search.history == search.history
        assert plain.baseline == engine.simulate(
            blocks, geometry, ModuloIndexing(geometry.index_bits)
        )
        assert plain.optimized == engine.simulate(
            blocks, geometry, XorIndexing(search.function)
        )
        cold = optimize_for_trace(
            conflict_trace, geometry, family="2-in",
            context=PipelineContext(tmp_path),
        )
        warm = optimize_for_trace(
            conflict_trace, geometry, family="2-in",
            context=PipelineContext(tmp_path),
        )
        for result in (cold, warm):
            assert result.hash_function.columns == plain.hash_function.columns
            assert result.baseline == plain.baseline
            assert result.optimized == plain.optimized
            assert result.removed_percent == plain.removed_percent
            assert result.search.estimated_misses == plain.search.estimated_misses
            assert result.search.history == plain.search.history
            assert result.search.steps == plain.search.steps
            assert result.profile.digest == plain.profile.digest
            assert result.reverted == plain.reverted

    def test_warm_optimize_loads_not_computes(self, conflict_trace, tmp_path):
        geometry = CacheGeometry.direct_mapped(1024)
        ctx = PipelineContext(tmp_path)
        optimize_for_trace(conflict_trace, geometry, family="2-in", context=ctx)
        warm_ctx = PipelineContext(tmp_path)
        optimize_for_trace(conflict_trace, geometry, family="2-in", context=warm_ctx)
        stats = warm_ctx.cache_stats()
        assert stats["profile"] == {"hits": 1, "misses": 0, "stores": 0}
        assert stats["optimization"] == {"hits": 1, "misses": 0, "stores": 0}


class TestKeySeparation:
    def test_different_parameters_do_not_collide(self, conflict_trace, tmp_path):
        ctx = PipelineContext(tmp_path)
        g1 = CacheGeometry.direct_mapped(1024)
        g4 = CacheGeometry.direct_mapped(4096)
        r1 = optimize_for_trace(conflict_trace, g1, family="2-in", context=ctx)
        r4 = optimize_for_trace(conflict_trace, g4, family="2-in", context=ctx)
        assert r1.geometry != r4.geometry
        r16 = optimize_for_trace(conflict_trace, g1, family="16-in", context=ctx)
        # Family names are unique per parameterization ("perm-2in" vs
        # "perm"), so the records cannot collide.
        assert r16.family_name != r1.family_name
        # All three were computed, none served from another's record.
        assert ctx.cache_stats()["optimization"]["stores"] == 3

    def test_cache_hit_keeps_current_trace_name(self, conflict_trace, tmp_path):
        """Digests ignore provenance, so a same-content trace under a
        different name may hit another trace's record — the result must
        still be labeled with the trace that was asked about."""
        geometry = CacheGeometry.direct_mapped(1024)
        twin = Trace(
            conflict_trace.addresses, uops=conflict_trace.uops, name="twin"
        )
        assert twin.digest == conflict_trace.digest
        ctx = PipelineContext(tmp_path)
        optimize_for_trace(conflict_trace, geometry, family="2-in", context=ctx)
        hit = optimize_for_trace(twin, geometry, family="2-in", context=ctx)
        assert ctx.cache_stats()["optimization"]["hits"] == 1
        assert hit.trace_name == "twin"

    def test_guard_in_key(self, conflict_trace, tmp_path):
        ctx = PipelineContext(tmp_path)
        geometry = CacheGeometry.direct_mapped(1024)
        optimize_for_trace(conflict_trace, geometry, family="2-in", context=ctx)
        optimize_for_trace(
            conflict_trace, geometry, family="2-in", guard=True, context=ctx
        )
        assert ctx.cache_stats()["optimization"]["stores"] == 2


class TestEvaluateMany:
    def test_partial_cache_fills_only_missing(self, conflict_trace, tmp_path):
        geometry = CacheGeometry.direct_mapped(1024)
        rng = np.random.default_rng(0)
        functions = [
            XorHashFunction.random(16, geometry.index_bits, rng) for _ in range(4)
        ]
        expected = engine.evaluate_many(conflict_trace, geometry, functions)

        # Prime the cache with one candidate only.
        PipelineContext(tmp_path).evaluate(conflict_trace, geometry, functions[2])
        warm = PipelineContext(tmp_path)
        batched = warm.evaluate_many(conflict_trace, geometry, functions)
        assert batched == expected
        assert warm.cache_stats()["stats"]["hits"] == 1
        assert warm.cache_stats()["stats"]["stores"] == 3

    def test_modulo_baseline_cached(self, conflict_trace, tmp_path):
        geometry = CacheGeometry.direct_mapped(1024)
        direct = engine.simulate(
            conflict_trace.block_addresses(4), geometry,
            ModuloIndexing(geometry.index_bits),
        )
        assert PipelineContext(tmp_path).baseline(conflict_trace, geometry) == direct
        assert PipelineContext(tmp_path).baseline(conflict_trace, geometry) == direct


def _keys_trace() -> Trace:
    return Trace(np.arange(256, dtype=np.uint64) * 12, name="keys")


def _skew_banks(m: int, shift: int = 0) -> list:
    """Modulo in bank 0, a fixed XOR permutation in bank 1."""
    sigma = [m + ((c + shift) % (16 - m)) for c in range(m)]
    return [ModuloIndexing(m), XorIndexing(XorHashFunction.from_sigma(16, m, sigma))]


class TestStatsKeys:
    """A ``stats`` key names its indexing scheme.  The modulo and xor
    keys are pinned to the values records were stored under before the
    skewed scheme existed, so a key change that would orphan them
    fails here."""

    DM = CacheGeometry.direct_mapped(1024)
    TWO_WAY = CacheGeometry(1024, 4, associativity=2)
    XOR = XorHashFunction.from_sigma(16, 8, [8 + c for c in range(8)])

    def key(self, geometry, indexing, **seed) -> str:
        return PipelineContext()._stats_key(_keys_trace(), geometry, indexing, **seed)

    def test_existing_keys_are_unchanged(self):
        fa = CacheGeometry.fully_associative(1024)
        keys = [
            self.key(geometry, ModuloIndexing(geometry.index_bits))
            for geometry in (self.DM, self.TWO_WAY, fa)
        ]
        keys.append(self.key(self.DM, XorIndexing(self.XOR)))
        assert keys == [
            "87c01900a9354b92873d3109ba55560831c7066548972fb608de27b2a5c09710",
            "649a6bb242254d2cf51e59fc070e796f4e26f583c268f3a6df3af38d59f34e8c",
            "19a0444f90bcd8e6be17c74220f020257bd3fa99311318f2bb999c38a2b7630c",
            "cdb13bc690d7571490073b66ea5d3ed3fb32536fbda13c6c144a245c4be2a4cc",
        ]

    def test_skewed_key_separates_seed_and_banks(self):
        banks = _skew_banks(7)
        key = self.key(self.TWO_WAY, banks, seed=0)
        # Pinned too, so stored skewed records stay addressable.
        assert key == "d511f88a57fab6f9fdb79495f214440cbbb5927d42480bd1be40583e8905bd0b"
        assert self.key(self.TWO_WAY, banks, seed=1) != key
        assert self.key(self.TWO_WAY, _skew_banks(7, shift=1), seed=0) != key
        assert self.key(self.TWO_WAY, banks[::-1], seed=0) != key

    def test_skewed_cached_equals_engine(self, conflict_trace, tmp_path):
        banks = _skew_banks(7)
        direct = engine.simulate_banks(conflict_trace.block_addresses(4), banks, seed=3)

        def simulate():
            return PipelineContext(tmp_path).simulate(
                conflict_trace, self.TWO_WAY, banks, seed=3
            )

        cold = simulate()
        with cache_events() as events, replay_only():
            warm = simulate()
        assert cold == direct and warm == direct and replayed(events)

    def test_bank_list_must_fit_the_geometry(self, conflict_trace):
        with pytest.raises(ValueError, match="does not fit"):
            PipelineContext().simulate(conflict_trace, self.DM, _skew_banks(7))
        with pytest.raises(ValueError, match="does not fit"):
            PipelineContext().simulate(conflict_trace, self.TWO_WAY, _skew_banks(6))


class TestReplayOnly:
    def test_a_miss_raises_and_counts_nothing(self, conflict_trace, geometry_1kb, tmp_path):
        with cache_events() as events, replay_only(), pytest.raises(NotCached) as raised:
            PipelineContext(tmp_path).baseline(conflict_trace, geometry_1kb)
        assert raised.value.kind == "stats" and events == {}
        with cache_events() as events:
            cold = PipelineContext(tmp_path).baseline(conflict_trace, geometry_1kb)
        assert events["stats"] == {"misses": 1, "stores": 1}
        with cache_events() as events, replay_only():
            assert PipelineContext(tmp_path).baseline(conflict_trace, geometry_1kb) == cold
        assert replayed(events)

    def test_a_context_without_a_cache_raises(self, conflict_trace, geometry_1kb):
        with replay_only(), pytest.raises(NotCached) as raised:
            PipelineContext().baseline(conflict_trace, geometry_1kb)
        assert raised.value.kind == "stats"

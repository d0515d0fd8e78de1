"""Tests for the end-to-end optimization pipeline."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.optimizer import optimize_for_trace
from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import profile_trace
from repro.search.families import PermutationFamily
from repro.trace.trace import Trace


class TestPipeline:
    def test_removes_conflicts(self, conflict_trace, geometry_1kb):
        result = optimize_for_trace(conflict_trace, geometry_1kb, family="2-in")
        assert result.removed_percent > 90
        assert result.optimized.misses < result.baseline.misses
        assert result.hash_function.is_permutation_based
        assert result.hash_function.max_fan_in <= 2

    def test_family_string_and_object_agree(self, conflict_trace, geometry_1kb):
        by_name = optimize_for_trace(conflict_trace, geometry_1kb, family="2-in")
        by_object = optimize_for_trace(
            conflict_trace, geometry_1kb, family=PermutationFamily(16, 8, 2)
        )
        assert by_name.hash_function == by_object.hash_function

    def test_profile_reuse(self, conflict_trace, geometry_1kb):
        profile = profile_trace(conflict_trace, geometry_1kb, 16)
        a = optimize_for_trace(
            conflict_trace, geometry_1kb, family="2-in", profile=profile
        )
        b = optimize_for_trace(conflict_trace, geometry_1kb, family="2-in")
        assert a.hash_function == b.hash_function

    def test_no_conflicts_returns_modulo(self, geometry_1kb):
        trace = Trace(4 * np.arange(64, dtype=np.uint64))
        result = optimize_for_trace(trace, geometry_1kb, family="2-in")
        assert result.hash_function == XorHashFunction.modulo(16, 8)
        assert result.removed_percent == 0.0

    def test_family_size_mismatch(self, conflict_trace, geometry_1kb):
        with pytest.raises(ValueError):
            optimize_for_trace(
                conflict_trace, geometry_1kb, family=PermutationFamily(16, 10, 2)
            )

    def test_m_larger_than_n_rejected(self, conflict_trace):
        huge = CacheGeometry.direct_mapped(1 << 20)  # m = 18 > n = 16
        with pytest.raises(ValueError):
            optimize_for_trace(conflict_trace, huge, family="2-in")

    def test_summary_text(self, conflict_trace, geometry_1kb):
        result = optimize_for_trace(conflict_trace, geometry_1kb, family="2-in")
        text = result.summary()
        assert "removes" in text and "%" in text

    def test_misses_per_kuop(self, conflict_trace, geometry_1kb):
        result = optimize_for_trace(conflict_trace, geometry_1kb)
        per_kuop = result.base_misses_per_kuop(conflict_trace.uops)
        assert per_kuop == pytest.approx(
            1000 * result.baseline.misses / conflict_trace.uops
        )


class TestStrategies:
    def test_default_strategy_is_steepest(self, conflict_trace, geometry_1kb):
        result = optimize_for_trace(conflict_trace, geometry_1kb, family="2-in")
        assert result.search.strategy_name == "steepest"

    def test_strategy_specs_accepted(self, conflict_trace, geometry_1kb):
        for spec in ("first-improvement", "beam:2"):
            result = optimize_for_trace(
                conflict_trace, geometry_1kb, family="2-in", strategy=spec
            )
            assert result.hash_function.is_full_rank
            assert result.search.strategy_name in ("first-improvement", "beam(2)")

    def test_strategy_instances_accepted(self, conflict_trace, geometry_1kb):
        from repro.search.strategies import BeamSearch

        result = optimize_for_trace(
            conflict_trace, geometry_1kb, family="2-in", strategy=BeamSearch(2)
        )
        assert result.search.strategy_name == "beam(2)"

    def test_strategy_with_restarts_verifies_front(self, conflict_trace, geometry_1kb):
        result = optimize_for_trace(
            conflict_trace, geometry_1kb, family="2-in",
            strategy="first-improvement", restarts=2, seed=5,
        )
        assert result.optimized.misses <= result.baseline.misses
        # Re-reporting vs the conventional start must not lose the
        # baseline reference point.
        assert result.search.start_misses >= result.search.estimated_misses

    def test_cached_records_keyed_by_strategy(self, conflict_trace, geometry_1kb,
                                              tmp_path):
        from repro.pipeline.context import PipelineContext

        ctx = PipelineContext(tmp_path / "cache")
        steepest = optimize_for_trace(
            conflict_trace, geometry_1kb, family="2-in", context=ctx
        )
        beam = optimize_for_trace(
            conflict_trace, geometry_1kb, family="2-in", strategy="beam:2",
            context=ctx,
        )
        assert beam.search.strategy_name == "beam(2)"
        # Warm replay returns each strategy's own record.
        again = optimize_for_trace(
            conflict_trace, geometry_1kb, family="2-in", strategy="beam:2",
            context=ctx,
        )
        assert again.search.strategy_name == "beam(2)"
        assert again.hash_function == beam.hash_function
        steepest_again = optimize_for_trace(
            conflict_trace, geometry_1kb, family="2-in", context=ctx
        )
        assert steepest_again.search.strategy_name == "steepest"
        assert steepest_again.hash_function == steepest.hash_function


class TestSetAssociativeGeometry:
    def test_optimizer_works_on_two_way_cache(self, conflict_trace):
        """The pipeline also serves set-associative caches: the profile
        uses total capacity; evaluation uses the LRU simulator."""
        geometry = CacheGeometry(1024, block_size=4, associativity=2)
        result = optimize_for_trace(conflict_trace, geometry, family="2-in")
        assert result.hash_function.m == geometry.index_bits == 7
        assert result.optimized.misses <= result.baseline.misses


class TestGuard:
    def test_guard_reverts_when_worse(self, geometry_1kb, monkeypatch):
        """Force a bad search outcome; the guard must fall back to modulo."""
        import repro.search.hill_climb as search_module
        from repro.search.hill_climb import SearchResult

        bad_fn = XorHashFunction.from_sigma(16, 8, [15, 14, 13, 12, 11, 10, 9, 8])

        def fake_search(profile, family, restarts=0, seed=0, max_steps=None,
                        strategy="steepest"):
            return SearchResult(
                function=bad_fn,
                estimated_misses=0,
                start_misses=0,
                steps=0,
                evaluations=0,
                seconds=0.0,
                family_name=family.name,
            )

        monkeypatch.setattr(search_module, "hill_climb_restarts", fake_search)
        # A ping-pong pair that conflicts under bad_fn but not under
        # modulo: 0x0001 ^ 0x8000 = 0x8001 is palindromic, hence in
        # N(bad_fn) (s_c = a_c ^ a_{15-c}), while the modulo sets differ.
        a, b = 0x0001, 0x8000
        assert bad_fn.apply(a) == bad_fn.apply(b)
        trace = Trace(4 * np.tile(np.array([a, b], dtype=np.uint64), 50))
        guarded = optimize_for_trace(trace, geometry_1kb, family="16-in", guard=True)
        assert guarded.reverted
        assert guarded.hash_function == XorHashFunction.modulo(16, 8)
        assert guarded.removed_percent == 0.0
        unguarded = optimize_for_trace(trace, geometry_1kb, family="16-in", guard=False)
        assert not unguarded.reverted
        assert unguarded.removed_percent < 0

"""The paper fixes n = 16; the library must not.  These tests run the
pipeline at other hashed-window widths."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.core.optimizer import optimize_for_trace
from repro.profiling.conflict_profile import profile_trace
from repro.profiling.estimator import MissEstimator
from repro.gf2.hashfn import XorHashFunction
from repro.trace.trace import Trace
from tests.oracles.eq4 import estimate_misses_nullspace


@pytest.fixture
def small_conflict_trace():
    streams = [k * 1024 + 4 * np.arange(16, dtype=np.uint64) for k in range(4)]
    inner = np.stack(streams, axis=1).reshape(-1)
    return Trace(np.tile(inner, 15), name="streams")


class TestNarrowWindow:
    @pytest.mark.parametrize("n", [10, 12, 14])
    def test_pipeline_at_width(self, small_conflict_trace, n):
        geometry = CacheGeometry.direct_mapped(1024)
        result = optimize_for_trace(
            small_conflict_trace, geometry, family="2-in", n=n
        )
        assert result.hash_function.n == n
        assert result.optimized.misses <= result.baseline.misses

    def test_window_narrower_than_m_rejected(self, small_conflict_trace):
        geometry = CacheGeometry.direct_mapped(4096)  # m = 10
        with pytest.raises(ValueError):
            optimize_for_trace(small_conflict_trace, geometry, family="2-in", n=9)

    def test_narrow_window_hides_high_conflicts(self, small_conflict_trace):
        """Conflict vectors above the window degrade to beyond_window;
        a narrow window cannot fix what it cannot see."""
        geometry = CacheGeometry.direct_mapped(1024)
        wide = profile_trace(small_conflict_trace, geometry, 16)
        narrow = profile_trace(small_conflict_trace, geometry, 8)
        assert narrow.beyond_window >= wide.beyond_window
        assert narrow.total_weight <= wide.total_weight

    def test_overwide_window_works_on_both_sides(self):
        """Windows wider than 16 bits evaluate on both the null-space
        side and the support side (the packed estimator)."""
        from repro.profiling.conflict_profile import ConflictProfile

        counts = np.zeros(1 << 17, dtype=np.int64)
        counts[1 << 16] = 5
        profile = ConflictProfile(17, counts)
        fn = XorHashFunction.modulo(17, 4)
        assert estimate_misses_nullspace(profile, fn) == 5  # 1<<16 is in N(fn)
        assert MissEstimator(profile).cost(fn.columns) == 5

    def test_wide_window_end_to_end(self, small_conflict_trace):
        """The full pipeline runs at n = 18, where the estimator packs."""
        geometry = CacheGeometry.direct_mapped(1024)
        result = optimize_for_trace(
            small_conflict_trace, geometry, family="2-in", n=18
        )
        assert result.hash_function.n == 18
        assert result.optimized.misses <= result.baseline.misses

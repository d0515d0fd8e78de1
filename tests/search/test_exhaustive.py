"""Tests for the exhaustive optimal bit-select search (Patel et al.)."""

import math

import numpy as np
import pytest

from repro.cache.engine import simulate
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import BitSelectIndexing, XorIndexing
from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import profile_blocks
from repro.search.exhaustive import (
    enumerate_bit_select_masks,
    optimal_bit_select,
)
from repro.search.families import BitSelectFamily
from repro.search.strategies import strategy_for_name


class TestEnumeration:
    def test_count_is_binomial(self):
        for n, m in [(6, 3), (8, 4), (10, 2)]:
            masks = enumerate_bit_select_masks(n, m)
            assert len(masks) == math.comb(n, m)
            assert len(set(masks.tolist())) == len(masks)
            assert all(bin(int(v)).count("1") == m for v in masks)

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_bit_select_masks(4, 0)
        with pytest.raises(ValueError):
            enumerate_bit_select_masks(4, 5)


def _bit_select_misses(blocks, n, bits):
    geometry = CacheGeometry.direct_mapped((1 << len(bits)) * 4)
    return simulate(blocks, geometry, BitSelectIndexing(n, bits)).misses


class TestFastExactKernel:
    def test_matches_full_simulator(self):
        """The mask-as-set-identity shortcut finds the minimum of the
        real simulator over every selection."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from tests.conftest import block_traces

        @settings(max_examples=40, deadline=None)
        @given(
            block_traces(max_block=1 << 8),
            st.sampled_from([(6, 2), (7, 3), (8, 4), (8, 1)]),
        )
        def check(blocks, shape):
            n, m = shape
            result = optimal_bit_select(n, m, blocks=blocks, mode="exact")
            scores = [
                _bit_select_misses(blocks, n, [r for r in range(n) if (v >> r) & 1])
                for v in enumerate_bit_select_masks(n, m).tolist()
            ]
            assert result.misses == min(scores)
            selected = [c.bit_length() - 1 for c in result.function.columns]
            assert _bit_select_misses(blocks, n, selected) == result.misses

        check()

    def test_empty_trace(self):
        empty = np.zeros(0, dtype=np.uint64)
        assert optimal_bit_select(4, 2, blocks=empty, mode="exact").misses == 0
        assert _bit_select_misses(empty, 4, [0, 1]) == 0


class TestExactMode:
    def test_finds_conflict_free_selection(self):
        """Blocks differing only in bit 9: selecting bit 9 is optimal."""
        blocks = np.tile(np.array([0, 1 << 9], dtype=np.uint64), 50)
        result = optimal_bit_select(10, 4, blocks=blocks, mode="exact")
        assert result.misses == 2  # compulsory only
        selected = {c.bit_length() - 1 for c in result.function.columns}
        assert 9 in selected

    def test_optimal_beats_every_member(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 256, size=400).astype(np.uint64)
        n, m = 8, 3
        result = optimal_bit_select(n, m, blocks=blocks, mode="exact")
        geometry = CacheGeometry.direct_mapped((1 << m) * 4)
        for mask_value in enumerate_bit_select_masks(n, m):
            bits = [r for r in range(n) if (int(mask_value) >> r) & 1]
            fn = XorHashFunction.bit_select(n, bits)
            stats = simulate(blocks, geometry, XorIndexing(fn))
            assert result.misses <= stats.misses

    def test_exact_needs_blocks(self):
        with pytest.raises(ValueError):
            optimal_bit_select(8, 4, mode="exact")


class TestEstimateMode:
    def test_estimate_matches_brute_force(self):
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 512, size=600).astype(np.uint64)
        n, m = 9, 4
        profile = profile_blocks(blocks, 64, n)
        result = optimal_bit_select(n, m, profile=profile, mode="estimate")
        # brute force over all masks via the estimator definition
        vectors, weights = profile.support()
        best = None
        for mask_value in enumerate_bit_select_masks(n, m):
            cost = int(weights[(vectors & int(mask_value)) == 0].sum())
            best = cost if best is None else min(best, cost)
        assert result.misses == best

    def test_estimate_needs_profile(self):
        with pytest.raises(ValueError):
            optimal_bit_select(8, 4, mode="estimate")

    def test_profile_window_mismatch(self):
        profile = profile_blocks(np.zeros(1, dtype=np.uint64), 4, 6)
        with pytest.raises(ValueError):
            optimal_bit_select(8, 4, profile=profile, mode="estimate")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            optimal_bit_select(8, 4, mode="psychic")

    def test_exhaustive_at_least_as_good_as_hill_climb(self):
        """The optimum over the family bounds the heuristic (same objective)."""
        rng = np.random.default_rng(2)
        blocks = rng.integers(0, 1024, size=800).astype(np.uint64)
        n, m = 10, 4
        profile = profile_blocks(blocks, 64, n)
        exhaustive = optimal_bit_select(n, m, profile=profile, mode="estimate")
        heuristic = strategy_for_name("steepest").search(
            profile, BitSelectFamily(n, m)
        )
        assert exhaustive.misses <= heuristic.estimated_misses


class TestWideWindows:
    """n > 32: selection masks and support vectors must stay uint64.

    The old uint32 cast silently dropped every selection of bits >= 32
    even though the estimator itself has no width cap."""

    def test_masks_are_uint64_and_complete_at_n40(self):
        masks = enumerate_bit_select_masks(40, 2)
        assert masks.dtype == np.uint64
        assert len(masks) == math.comb(40, 2)
        top = (1 << 39) | (1 << 38)
        assert top in set(int(v) for v in masks)
        assert all(bin(int(v)).count("1") == 2 for v in masks)

    def test_width_cap_is_64(self):
        with pytest.raises(ValueError):
            enumerate_bit_select_masks(65, 2)

    def test_exact_mode_selects_high_bits_at_n40(self):
        """Blocks differing only in bits 35/37: selecting them is
        conflict-free, which a 32-bit mask could never express."""
        pattern = np.array(
            [0, 1 << 35, 1 << 37, (1 << 35) | (1 << 37)], dtype=np.uint64
        )
        blocks = np.tile(pattern, 50)
        result = optimal_bit_select(40, 2, blocks=blocks, mode="exact")
        assert result.misses == 4  # compulsory only
        selected = {c.bit_length() - 1 for c in result.function.columns}
        assert selected == {35, 37}

    def test_estimate_mode_matches_brute_force_at_n40(self):
        """Property test of the uint64 support scoring at n = 40."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.search.exhaustive import _best_estimated_support

        n, m = 40, 2
        masks = enumerate_bit_select_masks(n, m)

        @settings(max_examples=25, deadline=None)
        @given(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=(1 << n) - 1),
                    st.integers(min_value=1, max_value=100),
                ),
                min_size=1,
                max_size=15,
            )
        )
        def check(entries):
            vectors = np.array([v for v, _ in entries], dtype=np.uint64)
            weights = np.array([w for _, w in entries], dtype=np.int64)
            best_mask, best_cost = _best_estimated_support(masks, vectors, weights)
            brute = min(
                sum(w for v, w in entries if (v & int(mask_value)) == 0)
                for mask_value in masks
            )
            assert best_cost == brute
            assert sum(
                w for v, w in entries if (v & best_mask) == 0
            ) == best_cost

        check()

    def test_exact_kernel_wide_blocks(self):
        """Selections from a 40-bit window score on uint64 blocks."""
        blocks = np.tile(
            np.array([1 << 39, (1 << 39) | (1 << 20)], dtype=np.uint64), 30
        )
        assert _bit_select_misses(blocks, 40, [20]) == 2
        assert _bit_select_misses(blocks, 40, [21]) == 60
        result = optimal_bit_select(40, 1, blocks=blocks, mode="exact")
        assert result.misses == 2


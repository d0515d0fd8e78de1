"""Tests for the optimal bit-select search (Patel et al.).

The branch and bound must return exactly what the retired enumeration
(:mod:`tests.oracles.bit_select`) returns: the same mask, so the same
tie-break, and the same misses, in both scoring modes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.engine import simulate
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import BitSelectIndexing, XorIndexing
from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import ConflictProfile, profile_blocks
from repro.search.exhaustive import optimal_bit_select
from repro.search.families import BitSelectFamily
from repro.search.strategies import strategy_for_name
from repro.workloads.registry import get_workload
from tests.conftest import block_traces
from tests.oracles.bit_select import (
    _best_estimated,
    _best_estimated_support,
    _best_exact,
    enumerate_bit_select_masks,
)


def _selection(n, mask):
    return XorHashFunction.bit_select(n, [r for r in range(n) if (mask >> r) & 1])


class _SupportProfile:
    """The two things estimate mode reads of a profile, for windows
    too wide for a dense :class:`ConflictProfile` (n > 32)."""

    def __init__(self, n, vectors, weights):
        self.n = n
        self._support = (
            np.asarray(vectors, dtype=np.uint64),
            np.asarray(weights, dtype=np.int64),
        )

    def support(self):
        return self._support


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        block_traces(max_block=1 << 12),
        st.sampled_from([(3, 1), (4, 2), (6, 3), (7, 5), (8, 4), (10, 3), (12, 6)]),
    )
    def test_matches_enumeration_in_both_modes(self, blocks, shape):
        n, m = shape
        masks = enumerate_bit_select_masks(n, m)
        exact = optimal_bit_select(n, m, blocks=blocks, mode="exact")
        mask, misses = _best_exact(n, masks, blocks)
        assert (exact.function, exact.misses) == (_selection(n, mask), misses)
        profile = profile_blocks(blocks, 1 << m, n)
        estimate = optimal_bit_select(n, m, profile=profile, mode="estimate")
        mask, misses = _best_estimated(masks, profile)
        assert (estimate.function, estimate.misses) == (_selection(n, mask), misses)

    @settings(max_examples=10, deadline=None)
    @given(block_traces(max_len=400, max_block=1 << 16))
    def test_matches_enumeration_at_table3_shape(self, blocks):
        """n = 16, m = 10: Table 3's window over a 4 KB cache."""
        masks = enumerate_bit_select_masks(16, 10)
        result = optimal_bit_select(16, 10, blocks=blocks, mode="exact")
        mask, misses = _best_exact(16, masks, blocks)
        assert (result.function, result.misses) == (_selection(16, mask), misses)

    @pytest.mark.parametrize("mode", ["exact", "estimate"])
    def test_empty_input_takes_the_first_selection(self, mode):
        """Every selection ties at zero: the first one wins, and the
        search stops at once because nothing can beat the all-bits
        score."""
        n, m = 16, 10
        empty = np.zeros(0, dtype=np.uint64)
        result = optimal_bit_select(
            n, m, blocks=empty, profile=ConflictProfile(n, np.zeros(1 << n)), mode=mode
        )
        masks = enumerate_bit_select_masks(n, m)
        oracle = _best_exact(n, masks, empty) if mode == "exact" else (
            _best_estimated_support(masks, empty, empty)
        )
        assert (result.function, result.misses) == (_selection(n, oracle[0]), 0)
        assert result.evaluated <= m + 1

    def test_search_scores_far_fewer_masks_than_the_enumeration(self):
        """On a real kernel the bound prunes nearly every branch."""
        blocks = get_workload("powerstone", "v42", "tiny").data.block_addresses(4)[:4000]
        result = optimal_bit_select(16, 10, blocks=blocks, mode="exact")
        masks = enumerate_bit_select_masks(16, 10)
        mask, misses = _best_exact(16, masks, blocks)
        assert (result.function, result.misses) == (_selection(16, mask), misses)
        assert result.evaluated < len(masks) // 50


def _bit_select_misses(blocks, n, bits):
    geometry = CacheGeometry.direct_mapped((1 << len(bits)) * 4)
    return simulate(blocks, geometry, BitSelectIndexing(n, bits)).misses


class TestFastExactKernel:
    def test_matches_full_simulator(self):
        """The mask-as-set-identity shortcut finds the minimum of the
        real simulator over every selection."""

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
        with pytest.raises(ValueError):
            optimal_bit_select(65, 2, blocks=np.zeros(1, dtype=np.uint64))

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

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=(1 << 40) - 1),
                st.integers(min_value=1, max_value=100),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_estimate_mode_matches_brute_force_at_n40(self, entries):
        """Estimate mode against the oracle on uint64 support vectors."""
        n, m = 40, 2
        vectors = [v for v, _ in entries]
        weights = [w for _, w in entries]
        result = optimal_bit_select(
            n, m, profile=_SupportProfile(n, vectors, weights), mode="estimate"
        )
        mask, cost = _best_estimated_support(
            enumerate_bit_select_masks(n, m), vectors, weights
        )
        assert (result.function, result.misses) == (_selection(n, mask), cost)
        assert sum(w for v, w in entries if (v & mask) == 0) == cost

    @settings(max_examples=25, deadline=None)
    @given(block_traces(max_block=1 << 40))
    def test_exact_mode_matches_brute_force_at_n40(self, blocks):
        n, m = 40, 2
        result = optimal_bit_select(n, m, blocks=blocks, mode="exact")
        mask, misses = _best_exact(n, enumerate_bit_select_masks(n, m), blocks)
        assert (result.function, result.misses) == (_selection(n, mask), misses)

    def test_exact_kernel_wide_blocks(self):
        """Selections from a 40-bit window score on uint64 blocks."""
        blocks = np.tile(
            np.array([1 << 39, (1 << 39) | (1 << 20)], dtype=np.uint64), 30
        )
        assert _bit_select_misses(blocks, 40, [20]) == 2
        assert _bit_select_misses(blocks, 40, [21]) == 60
        result = optimal_bit_select(40, 1, blocks=blocks, mode="exact")
        assert result.misses == 2


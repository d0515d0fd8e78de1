"""Tests for the exhaustive optimal-XOR search (paper future work)."""

import numpy as np
import pytest

from repro.gf2.counting import gaussian_binomial
from repro.gf2.spaces import Subspace, all_subspace_bases
from repro.profiling.conflict_profile import ConflictProfile, profile_blocks
from repro.search.exhaustive import optimal_bit_select
from repro.search.families import GeneralXorFamily, PermutationFamily
from repro.search.optimal_xor import optimal_xor_function
from repro.search.strategies import strategy_for_name


def _profile(n, entries):
    counts = np.zeros(1 << n, dtype=np.int64)
    for vector, weight in entries:
        counts[vector] = weight
    return ConflictProfile(n, counts)


class TestSubspaceEnumeration:
    @pytest.mark.parametrize("n,dim", [(4, 0), (4, 1), (4, 2), (4, 4), (5, 3), (6, 2)])
    def test_counts_match_gaussian_binomial(self, n, dim):
        bases = list(all_subspace_bases(n, dim))
        assert len(bases) == gaussian_binomial(n, dim)

    @pytest.mark.parametrize("n,dim", [(5, 2), (5, 3)])
    def test_all_distinct_and_canonical(self, n, dim):
        spaces = set()
        for basis in all_subspace_bases(n, dim):
            space = Subspace(basis, n)
            assert space.dim == dim
            assert space.basis == basis  # already canonical
            spaces.add(space)
        assert len(spaces) == gaussian_binomial(n, dim)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(all_subspace_bases(4, 5))


class TestOptimalXor:
    def test_budget_guard(self):
        profile = _profile(16, [])
        with pytest.raises(ValueError):
            optimal_xor_function(profile, 8)

    def test_zero_profile(self):
        profile = _profile(8, [])
        result = optimal_xor_function(profile, 4)
        assert result.estimated_misses == 0
        assert result.spaces_evaluated == gaussian_binomial(8, 4)

    def test_single_vector_avoidable(self):
        profile = _profile(8, [(0b00010001, 100)])
        result = optimal_xor_function(profile, 4)
        assert result.estimated_misses == 0
        assert 0b00010001 not in result.function.null_space()

    def test_lower_bounds_hill_climb(self):
        """The global optimum bounds every local optimum (same objective)."""
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 200, size=2000).astype(np.uint64)
        profile = profile_blocks(blocks, 16, 8)
        optimal = optimal_xor_function(profile, 4)
        for family in (GeneralXorFamily(8, 4), PermutationFamily(8, 4)):
            climbed = strategy_for_name("steepest").search(profile, family)
            assert optimal.estimated_misses <= climbed.estimated_misses

    def test_lower_bounds_bit_select(self):
        """XOR optimum <= bit-select optimum (bit-select is a subfamily) —
        the paper's Sec. 6.1 argument, made exact."""
        rng = np.random.default_rng(6)
        blocks = rng.integers(0, 256, size=3000).astype(np.uint64)
        profile = profile_blocks(blocks, 32, 8)
        xor_opt = optimal_xor_function(profile, 4)
        bs_opt = optimal_bit_select(8, 4, profile=profile, mode="estimate")
        assert xor_opt.estimated_misses <= bs_opt.misses

    def test_permutation_only(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 200, size=1500).astype(np.uint64)
        profile = profile_blocks(blocks, 16, 8)
        unrestricted = optimal_xor_function(profile, 4)
        restricted = optimal_xor_function(profile, 4, permutation_only=True)
        assert restricted.function.is_permutation_based
        assert restricted.function.has_permutation_null_space()
        assert unrestricted.estimated_misses <= restricted.estimated_misses

    def test_validation(self):
        profile = _profile(8, [])
        with pytest.raises(ValueError):
            optimal_xor_function(profile, 0)
        with pytest.raises(ValueError):
            optimal_xor_function(profile, 9)

"""Tests for the hill-climbing search (paper Sec. 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import ConflictProfile, profile_blocks
from repro.search.families import (
    BitSelectFamily,
    GeneralXorFamily,
    PermutationFamily,
)
from repro.search.hill_climb import hill_climb_front, hill_climb_restarts
from repro.search.strategies import strategy_for_name
from tests.oracles.search import hill_climb_scalar

#: The batched steepest descent, the paper's search pass.
STEEPEST = strategy_for_name("steepest")


def _profile_with(n, entries):
    counts = np.zeros(1 << n, dtype=np.int64)
    for vector, weight in entries:
        counts[vector] = weight
    return ConflictProfile(n, counts)


class TestDescent:
    def test_history_strictly_decreasing(self):
        blocks = np.tile(
            np.stack(
                [k * 256 + np.arange(16, dtype=np.uint64) for k in range(4)], axis=1
            ).reshape(-1),
            10,
        )
        profile = profile_blocks(blocks, 64, 12)
        result = STEEPEST.search(profile, PermutationFamily(12, 6, 2))
        for earlier, later in zip(result.history, result.history[1:]):
            assert later < earlier

    def test_removes_single_dominant_vector(self):
        """One heavy conflict vector must leave the null space."""
        n, m = 12, 6
        heavy = 0b000001000001  # bits 0 and 6
        profile = _profile_with(n, [(heavy, 1000)])
        result = STEEPEST.search(profile, PermutationFamily(n, m, 2))
        assert result.estimated_misses == 0
        assert heavy not in result.function.null_space()

    def test_start_cost_is_modulo_cost(self):
        n, m = 12, 6
        # Vector with zero low bits is in the modulo null space.
        profile = _profile_with(n, [(0b111000 << 6, 42)])
        result = STEEPEST.search(profile, PermutationFamily(n, m, 2))
        assert result.start_misses == 42

    def test_respects_max_steps(self):
        blocks = np.tile(
            np.stack(
                [k * 256 + np.arange(16, dtype=np.uint64) for k in range(4)], axis=1
            ).reshape(-1),
            10,
        )
        profile = profile_blocks(blocks, 64, 12)
        result = STEEPEST.search(profile, PermutationFamily(12, 6, 2), max_steps=1)
        assert result.steps <= 1

    def test_result_in_family_and_full_rank(self):
        n, m = 12, 6
        profile = _profile_with(n, [(0b1000001, 10), (0b10000010, 20)])
        for family in (
            PermutationFamily(n, m, 2),
            BitSelectFamily(n, m),
            GeneralXorFamily(n, m, 2),
        ):
            result = STEEPEST.search(profile, family)
            assert family.contains(result.function)
            assert result.function.is_full_rank

    def test_zero_profile_stays_at_start(self):
        n, m = 12, 6
        profile = _profile_with(n, [])
        result = STEEPEST.search(profile, PermutationFamily(n, m, 2))
        assert result.steps == 0
        assert result.function == XorHashFunction.modulo(n, m)

    def test_start_override(self):
        n, m = 12, 6
        family = PermutationFamily(n, m, 2)
        start = XorHashFunction.from_sigma(n, m, [7, 8, 9, 10, 11, None])
        profile = _profile_with(n, [])
        result = STEEPEST.search(profile, family, start=start)
        assert result.function == start

    def test_start_outside_family_rejected(self):
        n, m = 12, 6
        family = BitSelectFamily(n, m)
        start = XorHashFunction.from_sigma(n, m, [7] * m)
        with pytest.raises(ValueError):
            STEEPEST.search(_profile_with(n, []), family, start=start)


class TestEstimatedRemoval:
    def test_removed_fraction_reporting(self):
        n, m = 12, 6
        profile = _profile_with(n, [(0b1000000, 100)])  # e6: in modulo null space
        result = STEEPEST.search(profile, PermutationFamily(n, m, 2))
        assert result.start_misses == 100
        assert result.estimated_misses == 0
        assert result.estimated_removed_fraction == 100.0


def _assert_identical(batched, scalar):
    """The tentpole's bit-identity contract for the default strategy."""
    assert batched.function == scalar.function
    assert batched.history == scalar.history
    assert batched.steps == scalar.steps
    assert batched.evaluations == scalar.evaluations
    assert batched.estimated_misses == scalar.estimated_misses
    assert batched.start_misses == scalar.start_misses


_ALL_FAMILIES = [
    PermutationFamily(10, 5, 2),
    PermutationFamily(10, 5, None),
    BitSelectFamily(10, 5),
    GeneralXorFamily(10, 5, 2),
    GeneralXorFamily(10, 5, None),
]


@st.composite
def sparse_profiles(draw, n=10):
    counts = np.zeros(1 << n, dtype=np.int64)
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=(1 << n) - 1),
                st.integers(min_value=1, max_value=200),
            ),
            max_size=25,
        )
    )
    for vector, weight in entries:
        counts[vector] += weight
    return ConflictProfile(n, counts)


class TestBatchedMatchesScalar:
    """The batched kernel must replay the retired per-column loop
    bit-identically: same final function, history, steps, evaluations."""

    @settings(max_examples=25, deadline=None)
    @given(sparse_profiles(), st.integers(min_value=0, max_value=4))
    def test_random_profiles_all_families(self, profile, family_index):
        family = _ALL_FAMILIES[family_index]
        _assert_identical(
            STEEPEST.search(profile, family), hill_climb_scalar(profile, family)
        )

    @settings(max_examples=10, deadline=None)
    @given(sparse_profiles(), st.integers(min_value=0, max_value=4))
    def test_random_starts(self, profile, seed):
        family = PermutationFamily(10, 5, 2)
        start = family.random_member(np.random.default_rng(seed))
        _assert_identical(
            STEEPEST.search(profile, family, start=start),
            hill_climb_scalar(profile, family, start=start),
        )

    @settings(max_examples=10, deadline=None)
    @given(sparse_profiles(), st.integers(min_value=0, max_value=3))
    def test_max_steps(self, profile, max_steps):
        family = PermutationFamily(10, 5, None)
        _assert_identical(
            STEEPEST.search(profile, family, max_steps=max_steps),
            hill_climb_scalar(profile, family, max_steps=max_steps),
        )

    def test_real_workload_profile(self):
        rng = np.random.default_rng(0)
        blocks = np.concatenate([
            np.tile(
                np.stack(
                    [k * 256 + np.arange(16, dtype=np.uint64) for k in range(4)],
                    axis=1,
                ).reshape(-1),
                10,
            ),
            rng.integers(0, 1 << 12, size=3000).astype(np.uint64),
        ])
        profile = profile_blocks(blocks, 64, 12)
        for family in (
            PermutationFamily(12, 6, 2),
            PermutationFamily(12, 6, None),
            BitSelectFamily(12, 6),
            GeneralXorFamily(12, 6, 2),
            GeneralXorFamily(12, 6, None),
        ):
            _assert_identical(
                STEEPEST.search(profile, family), hill_climb_scalar(profile, family)
            )

    def test_scalar_rejects_bad_starts_identically(self):
        family = BitSelectFamily(10, 5)
        bad = XorHashFunction.from_sigma(10, 5, [7] * 5)
        profile = _profile_with(10, [])
        for search in (STEEPEST.search, hill_climb_scalar):
            with pytest.raises(ValueError):
                search(profile, family, start=bad)


class TestLockstepFront:
    def test_front_equals_sequential_scalar_climbs(self):
        """One shared gather per round must not change any climber."""
        rng = np.random.default_rng(1)
        blocks = rng.integers(0, 1 << 12, size=4000).astype(np.uint64)
        profile = profile_blocks(blocks, 64, 12)
        family = PermutationFamily(12, 6, 2)
        front = hill_climb_front(profile, family, restarts=5, seed=9)
        start_rng = np.random.default_rng(9)
        expected = [hill_climb_scalar(profile, family)]
        for _ in range(5):
            expected.append(
                hill_climb_scalar(
                    profile, family, start=family.random_member(start_rng)
                )
            )
        assert len(front) == 6
        for batched, scalar in zip(front, expected):
            _assert_identical(batched, scalar)

    def test_front_first_entry_is_conventional_start(self):
        profile = _profile_with(10, [(0b1000001, 10)])
        front = hill_climb_front(profile, PermutationFamily(10, 5, 2), restarts=2)
        assert front[0].history[0] == front[0].start_misses

    def test_front_max_steps_applies_per_climber(self):
        rng = np.random.default_rng(2)
        blocks = rng.integers(0, 1 << 12, size=3000).astype(np.uint64)
        profile = profile_blocks(blocks, 64, 12)
        front = hill_climb_front(
            profile, PermutationFamily(12, 6, 2), restarts=3, seed=4, max_steps=1
        )
        assert all(result.steps <= 1 for result in front)


class TestFrozenResult:
    def test_with_start_does_not_mutate(self):
        profile = _profile_with(10, [(0b1000001, 10)])
        result = STEEPEST.search(profile, PermutationFamily(10, 5, 2))
        before = result.start_misses
        replaced = result.with_start(before + 1)
        assert replaced.start_misses == before + 1
        assert replaced.function == result.function
        assert result.start_misses == before

    def test_result_is_frozen(self):
        profile = _profile_with(10, [])
        result = STEEPEST.search(profile, PermutationFamily(10, 5, 2))
        with pytest.raises(AttributeError):
            result.start_misses = 7

    def test_restarts_do_not_mutate_front_members(self):
        rng = np.random.default_rng(3)
        blocks = rng.integers(0, 1 << 12, size=3000).astype(np.uint64)
        profile = profile_blocks(blocks, 64, 12)
        family = PermutationFamily(12, 6, 2)
        front = hill_climb_front(profile, family, restarts=4, seed=1)
        start_costs = [result.start_misses for result in front]
        best = hill_climb_restarts(profile, family, restarts=4, seed=1)
        assert [result.start_misses for result in front] == start_costs
        assert best.start_misses == front[0].start_misses
        assert best.estimated_misses == min(r.estimated_misses for r in front)


class TestRestarts:
    def test_restarts_never_worse(self):
        blocks = np.tile(
            np.stack(
                [k * 256 + np.arange(16, dtype=np.uint64) for k in range(4)], axis=1
            ).reshape(-1),
            10,
        )
        profile = profile_blocks(blocks, 64, 12)
        family = PermutationFamily(12, 6, 2)
        single = STEEPEST.search(profile, family)
        multi = hill_climb_restarts(profile, family, restarts=4, seed=1)
        assert multi.estimated_misses <= single.estimated_misses


class TestParityKernelFallback:
    """The NumPy 1.x parity fallback must not change a search: same
    function, same descent history, same evaluation count."""

    @pytest.mark.parametrize("n", [16, 20])
    @pytest.mark.parametrize("family_name", ["2-in", "16-in", "general"])
    def test_fallback_search_equals_bitwise_count_search(
        self, n, family_name, monkeypatch
    ):
        import repro.gf2.bitvec as bitvec
        from repro.cache.geometry import CacheGeometry
        from repro.profiling.conflict_profile import profile_trace
        from repro.search.families import family_for_name
        from repro.workloads.registry import get_workload

        trace = get_workload("powerstone", "compress", "tiny", 0).data
        geometry = CacheGeometry.direct_mapped(1024)
        profile = profile_trace(trace, geometry, n)
        family = family_for_name(family_name, n, geometry.index_bits)

        def run():
            result = STEEPEST.search(profile, family)
            return result.function, result.history, result.evaluations

        native = run()
        monkeypatch.setattr(bitvec, "_HAS_BITWISE_COUNT", False)
        assert run() == native

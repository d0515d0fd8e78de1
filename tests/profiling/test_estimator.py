"""Tests for the Eq. 4 miss estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import ConflictProfile, profile_blocks
from repro.profiling.estimator import MissEstimator, estimate_misses_nullspace
from tests.conftest import hash_functions


@st.composite
def profiles(draw, n=10):
    """Random sparse conflict profiles."""
    counts = np.zeros(1 << n, dtype=np.int64)
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=(1 << n) - 1),
                st.integers(min_value=1, max_value=100),
            ),
            max_size=30,
        )
    )
    for vector, weight in entries:
        counts[vector] += weight
    return ConflictProfile(n, counts)


class TestBothSidesAgree:
    @settings(max_examples=60, deadline=None)
    @given(profiles(), hash_functions(n=10))
    def test_support_equals_nullspace(self, profile, fn):
        assert MissEstimator(profile).cost_of(fn) == \
            estimate_misses_nullspace(profile, fn)


class TestEq4Semantics:
    def test_brute_force_eq4(self):
        """misses(H) literally sums misses(v) over v in N(H)."""
        counts = np.zeros(1 << 6, dtype=np.int64)
        counts[0b000011] = 5
        counts[0b110000] = 7
        counts[0b000111] = 1
        profile = ConflictProfile(6, counts)
        fn = XorHashFunction.modulo(6, 3)  # N(H) = vectors with low 3 bits 0
        assert estimate_misses_nullspace(profile, fn) == 7
        assert MissEstimator(profile).cost_of(fn) == 7

    def test_window_mismatch_rejected(self):
        import pytest

        profile = ConflictProfile(4, np.zeros(16, dtype=np.int64))
        with pytest.raises(ValueError):
            estimate_misses_nullspace(profile, XorHashFunction.modulo(5, 2))

    def test_estimate_matches_conflict_misses_on_clean_pattern(self):
        """On a pure ping-pong, Eq. 4 exactly counts the conflict misses
        of the baseline (estimate == exact non-compulsory misses)."""
        from repro.cache.engine import simulate
        from repro.cache.geometry import CacheGeometry

        blocks = np.tile(np.array([0, 256], dtype=np.uint64), 50)
        profile = profile_blocks(blocks, 256, 16)
        fn = XorHashFunction.modulo(16, 8)
        estimated = MissEstimator(profile).cost_of(fn)
        exact = simulate(blocks, CacheGeometry.direct_mapped(256 * 4))
        assert estimated == exact.misses - exact.compulsory


class TestMissEstimator:
    @settings(max_examples=30, deadline=None)
    @given(profiles(), hash_functions(n=10))
    def test_cost_matches_free_function(self, profile, fn):
        estimator = MissEstimator(profile)
        assert estimator.cost(fn.columns) == estimate_misses_nullspace(profile, fn)
        assert estimator.cost_of(fn) == estimator.cost(fn.columns)

    @settings(max_examples=30, deadline=None)
    @given(profiles(), hash_functions(n=10, m=4), st.data())
    def test_batched_column_replacement(self, profile, fn, data):
        """The batched evaluation equals evaluating each candidate alone."""
        estimator = MissEstimator(profile)
        column = data.draw(st.integers(min_value=0, max_value=fn.m - 1))
        candidates = np.array(
            [data.draw(st.integers(min_value=1, max_value=(1 << 10) - 1))
             for _ in range(5)],
            dtype=np.uint32,
        )
        batched = estimator.costs_with_column_replaced(fn.columns, column, candidates)
        for cand, cost in zip(candidates, batched):
            replaced = list(fn.columns)
            replaced[column] = int(cand)
            assert estimator.cost(tuple(replaced)) == cost

    @settings(max_examples=30, deadline=None)
    @given(profiles(), hash_functions(n=10, m=4), st.data())
    def test_vectorized_column_replacement_matches_loop(self, profile, fn, data):
        """The 2-D parity-table evaluation equals the per-candidate
        reference loop it replaced."""
        estimator = MissEstimator(profile)
        column = data.draw(st.integers(min_value=0, max_value=fn.m - 1))
        count = data.draw(st.integers(min_value=0, max_value=12))
        candidates = np.array(
            [data.draw(st.integers(min_value=0, max_value=(1 << 10) - 1))
             for _ in range(count)],
            dtype=np.uint32,
        )
        batched = estimator.costs_with_column_replaced(fn.columns, column, candidates)
        loop = estimator._costs_with_column_replaced_loop(fn.columns, column, candidates)
        assert batched.dtype == np.int64
        assert (batched == loop).all()

    def test_vectorized_column_replacement_chunks(self):
        """Forcing tiny chunks must not change the batched results."""
        counts = np.zeros(1 << 10, dtype=np.int64)
        rng = np.random.default_rng(3)
        counts[rng.integers(1, 1 << 10, size=40)] = rng.integers(1, 50, size=40)
        estimator = MissEstimator(ConflictProfile(10, counts))
        columns = (0b1, 0b10, 0b1100)
        candidates = rng.integers(0, 1 << 10, size=33).astype(np.uint32)
        expected = estimator._costs_with_column_replaced_loop(columns, 1, candidates)
        estimator.CHUNK_ELEMENTS = 4  # a handful of vectors per chunk
        assert (
            estimator.costs_with_column_replaced(columns, 1, candidates) == expected
        ).all()

    @settings(max_examples=30, deadline=None)
    @given(profiles(), hash_functions(n=10, m=4), st.data())
    def test_costs_for_moves_matches_per_column(self, profile, fn, data):
        """The whole-neighbourhood pass equals the per-column batched
        evaluation (its oracle) for every (column, candidate) move."""
        estimator = MissEstimator(profile)
        masks, move_columns = [], []
        for c in range(fn.m):
            count = data.draw(st.integers(min_value=0, max_value=6))
            for _ in range(count):
                masks.append(
                    data.draw(st.integers(min_value=0, max_value=(1 << 10) - 1))
                )
                move_columns.append(c)
        masks = np.array(masks, dtype=np.uint64)
        move_columns = np.array(move_columns, dtype=np.intp)
        fused = estimator.costs_for_moves(fn.columns, masks, move_columns)
        assert fused.dtype == np.int64
        for c in range(fn.m):
            mine = move_columns == c
            if not mine.any():
                continue
            per_column = estimator.costs_with_column_replaced(
                fn.columns, c, masks[mine]
            )
            assert (fused[mine] == per_column).all()

    def test_costs_for_moves_front_matches_single(self):
        """One shared gather over a front equals member-by-member calls."""
        rng = np.random.default_rng(5)
        counts = np.zeros(1 << 10, dtype=np.int64)
        counts[rng.integers(1, 1 << 10, size=60)] = rng.integers(1, 30, size=60)
        estimator = MissEstimator(ConflictProfile(10, counts))
        column_sets = [
            (0b1, 0b10, 0b100, 0b1000),
            (0b1011, 0b10, 0b1100, 0b1000000000),
            (0b1, 0b11, 0b111, 0b1111),
        ]
        masks = rng.integers(0, 1 << 10, size=90).astype(np.uint64)
        owners = rng.integers(0, len(column_sets), size=90).astype(np.intp)
        cols = rng.integers(0, 4, size=90).astype(np.intp)
        fused = estimator.costs_for_moves_front(column_sets, masks, owners, cols)
        for k, columns in enumerate(column_sets):
            mine = owners == k
            single = estimator.costs_for_moves(columns, masks[mine], cols[mine])
            assert (fused[mine] == single).all()

    def test_costs_for_moves_chunking(self):
        rng = np.random.default_rng(9)
        counts = np.zeros(1 << 10, dtype=np.int64)
        counts[rng.integers(1, 1 << 10, size=50)] = rng.integers(1, 50, size=50)
        estimator = MissEstimator(ConflictProfile(10, counts))
        columns = (0b1, 0b10, 0b1100)
        masks = rng.integers(0, 1 << 10, size=41).astype(np.uint64)
        cols = rng.integers(0, 3, size=41).astype(np.intp)
        expected = estimator.costs_for_moves(columns, masks, cols)
        estimator.CHUNK_ELEMENTS = 4
        assert (estimator.costs_for_moves(columns, masks, cols) == expected).all()

    def test_costs_for_moves_validation(self):
        estimator = MissEstimator(ConflictProfile(4, np.zeros(16, dtype=np.int64)))
        with pytest.raises(ValueError):
            estimator.costs_for_moves_front(
                [], np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.intp),
                np.zeros(0, dtype=np.intp),
            )
        with pytest.raises(ValueError):
            estimator.costs_for_moves_front(
                [(1, 2), (1,)], np.zeros(0, dtype=np.uint64),
                np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
            )
        with pytest.raises(ValueError):
            estimator.costs_for_moves(
                (1, 2), np.array([1, 2], dtype=np.uint64),
                np.array([0], dtype=np.intp),
            )

    def test_evaluation_counter(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[1] = 1
        estimator = MissEstimator(ConflictProfile(4, counts))
        estimator.cost((0b1, 0b10))
        estimator.costs_with_column_replaced((0b1, 0b10), 0, np.array([1, 2, 4]))
        assert estimator.evaluations == 4
        estimator.costs_for_moves(
            (0b1, 0b10),
            np.array([1, 2, 4], dtype=np.uint64),
            np.array([0, 1, 1], dtype=np.intp),
        )
        assert estimator.evaluations == 7

    def test_empty_profile_costs_zero(self):
        estimator = MissEstimator(ConflictProfile(4, np.zeros(16, dtype=np.int64)))
        assert estimator.cost((0b1,)) == 0
        assert estimator.support_size == 0


class TestWideWindows:
    """Windows wider than 16 bits: the support side (packed where the
    packing rule allows) must agree with the null-space side."""

    def _wide_profile(self, n=17):
        counts = np.zeros(1 << n, dtype=np.int64)
        counts[1 << 16] = 7  # a vector outside any 16-bit window
        counts[3] = 2
        return ConflictProfile(n, counts)

    def test_nullspace_side_has_no_width_limit(self):
        profile = self._wide_profile()
        fn = XorHashFunction(17, [1 << c for c in range(14)])
        expected = sum(int(profile.counts[v]) for v in fn.null_space())
        assert estimate_misses_nullspace(profile, fn) == expected

    def test_support_side_has_no_width_limit(self):
        profile = self._wide_profile()
        fn = XorHashFunction(17, [1 << c for c in range(14)])
        assert MissEstimator(profile).cost_of(fn) == \
            estimate_misses_nullspace(profile, fn)

    @settings(max_examples=20, deadline=None)
    @given(hash_functions(n=20, m=6), st.data())
    def test_wide_support_equals_nullspace(self, fn, data):
        n = 20
        counts = np.zeros(1 << n, dtype=np.int64)
        entries = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=(1 << n) - 1),
                    st.integers(min_value=1, max_value=50),
                ),
                max_size=20,
            )
        )
        for vector, weight in entries:
            counts[vector] += weight
        profile = ConflictProfile(n, counts)
        assert MissEstimator(profile).cost_of(fn) == \
            estimate_misses_nullspace(profile, fn)

    def test_wide_estimator_agrees_with_nullspace(self):
        n = 20
        counts = np.zeros(1 << n, dtype=np.int64)
        rng = np.random.default_rng(11)
        counts[rng.integers(1, 1 << n, size=200)] = rng.integers(1, 40, size=200)
        profile = ConflictProfile(n, counts)
        fn = XorHashFunction(n, [(1 << c) | (1 << 19) for c in range(8)])
        estimator = MissEstimator(profile)
        assert estimator.cost_of(fn) == estimate_misses_nullspace(profile, fn)
        candidates = rng.integers(0, 1 << n, size=40).astype(np.uint32)
        batched = estimator.costs_with_column_replaced(fn.columns, 2, candidates)
        loop = estimator._costs_with_column_replaced_loop(fn.columns, 2, candidates)
        assert (batched == loop).all()
        for cand, cost in zip(candidates[:5], batched[:5]):
            replaced = list(fn.columns)
            replaced[2] = int(cand)
            assert estimate_misses_nullspace(
                profile, XorHashFunction(n, replaced)
            ) == cost

    def test_support_dtype_widens_past_32_bits(self):
        from repro.profiling.estimator import _support_dtype

        assert _support_dtype(16) == np.uint32
        assert _support_dtype(32) == np.uint32
        assert _support_dtype(33) == np.uint64

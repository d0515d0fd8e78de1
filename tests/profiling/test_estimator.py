"""Tests for the Eq. 4 miss estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.bitpack import packing_pays
from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import ConflictProfile, profile_blocks
from repro.profiling.estimator import MissEstimator
from tests.conftest import hash_functions
from tests.oracles.eq4 import estimate_misses_nullspace
from tests.oracles.search import annihilated, column_replaced_costs, support_arrays


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


def _single(estimator, columns, masks, move_columns):
    """:meth:`MissEstimator.costs_for_moves_front` for a front of one."""
    masks = np.asarray(masks)
    return estimator.costs_for_moves_front(
        (tuple(columns),), masks, np.zeros(len(masks), dtype=np.intp), move_columns
    )


def _neighbourhood(data, m, n):
    """Drawn single-column moves: up to six candidate masks per column."""
    masks, cols = [], []
    for c in range(m):
        for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
            masks.append(data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)))
            cols.append(c)
    return np.array(masks, dtype=np.uint64), np.array(cols, dtype=np.intp)


def assert_front_matches_oracle(estimator, profile, column_sets, masks, owners, cols):
    """The neighbourhood property: every cost ``costs_for_moves_front``
    returns equals the frozen search oracle's per-column scalar cost."""
    fused = estimator.costs_for_moves_front(column_sets, masks, owners, cols)
    assert fused.dtype == np.int64
    vectors, weights = support_arrays(profile)
    for k, columns in enumerate(column_sets):
        for c in range(len(columns)):
            mine = (owners == k) & (cols == c)
            if mine.any():
                expected = column_replaced_costs(
                    vectors, weights, tuple(columns), c, masks[mine]
                )
                assert (fused[mine] == expected).all()
    return fused


class TestBothSidesAgree:
    @settings(max_examples=60, deadline=None)
    @given(profiles(), hash_functions(n=10))
    def test_support_equals_nullspace(self, profile, fn):
        assert MissEstimator(profile).cost(fn.columns) == \
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
        assert MissEstimator(profile).cost(fn.columns) == 7

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
        estimated = MissEstimator(profile).cost(fn.columns)
        exact = simulate(blocks, CacheGeometry.direct_mapped(256 * 4))
        assert estimated == exact.misses - exact.compulsory


class TestMissEstimator:
    @settings(max_examples=30, deadline=None)
    @given(profiles(), hash_functions(n=10))
    def test_cost_matches_free_function(self, profile, fn):
        estimator = MissEstimator(profile)
        assert estimator.cost(fn.columns) == estimate_misses_nullspace(profile, fn)

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
        batched = _single(
            estimator, fn.columns, candidates, np.full(5, column, dtype=np.intp)
        )
        for cand, cost in zip(candidates, batched):
            replaced = list(fn.columns)
            replaced[column] = int(cand)
            assert estimator.cost(tuple(replaced)) == cost

    @settings(max_examples=30, deadline=None)
    @given(profiles(), hash_functions(n=10, m=4), st.data())
    def test_vectorized_column_replacement_matches_loop(self, profile, fn, data):
        """The whole-neighbourhood pass equals the frozen oracle's
        per-column scalar cost at n <= 16 (unpacked parities)."""
        masks, cols = _neighbourhood(data, fn.m, 10)
        assert_front_matches_oracle(
            MissEstimator(profile), profile, [fn.columns], masks,
            np.zeros(len(masks), dtype=np.intp), cols,
        )

    def test_vectorized_column_replacement_chunks(self):
        """Forcing tiny chunks must not change the neighbourhood costs."""
        counts = np.zeros(1 << 10, dtype=np.int64)
        rng = np.random.default_rng(3)
        counts[rng.integers(1, 1 << 10, size=40)] = rng.integers(1, 50, size=40)
        profile = ConflictProfile(10, counts)
        estimator = MissEstimator(profile)
        columns = (0b1, 0b10, 0b1100)
        candidates = rng.integers(0, 1 << 10, size=33).astype(np.uint32)
        estimator.CHUNK_ELEMENTS = 4  # a handful of vectors per chunk
        assert_front_matches_oracle(
            estimator, profile, [columns], candidates,
            np.zeros(33, dtype=np.intp), np.ones(33, dtype=np.intp),
        )

    @settings(max_examples=30, deadline=None)
    @given(profiles(), hash_functions(n=10, m=4), st.data())
    def test_costs_for_moves_matches_per_column(self, profile, fn, data):
        """The whole-neighbourhood pass equals scoring each column's
        moves in a call of their own."""
        estimator = MissEstimator(profile)
        masks, move_columns = _neighbourhood(data, fn.m, 10)
        fused = _single(estimator, fn.columns, masks, move_columns)
        assert fused.dtype == np.int64
        for c in range(fn.m):
            mine = move_columns == c
            if not mine.any():
                continue
            per_column = _single(estimator, fn.columns, masks[mine], move_columns[mine])
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
            single = _single(estimator, columns, masks[mine], cols[mine])
            assert (fused[mine] == single).all()

    def test_costs_for_moves_chunking(self):
        rng = np.random.default_rng(9)
        counts = np.zeros(1 << 10, dtype=np.int64)
        counts[rng.integers(1, 1 << 10, size=50)] = rng.integers(1, 50, size=50)
        estimator = MissEstimator(ConflictProfile(10, counts))
        columns = (0b1, 0b10, 0b1100)
        masks = rng.integers(0, 1 << 10, size=41).astype(np.uint64)
        cols = rng.integers(0, 3, size=41).astype(np.intp)
        expected = _single(estimator, columns, masks, cols)
        estimator.CHUNK_ELEMENTS = 4
        assert (_single(estimator, columns, masks, cols) == expected).all()

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
            estimator.costs_for_moves_front(
                [(1, 2)], np.array([1, 2], dtype=np.uint64),
                np.zeros(2, dtype=np.intp), np.array([0], dtype=np.intp),
            )

    def test_evaluation_counter(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[1] = 1
        estimator = MissEstimator(ConflictProfile(4, counts))
        estimator.cost((0b1, 0b10))
        _single(
            estimator, (0b1, 0b10), np.array([1, 2, 4]), np.zeros(3, dtype=np.intp)
        )
        assert estimator.evaluations == 4
        _single(
            estimator,
            (0b1, 0b10),
            np.array([1, 2, 4], dtype=np.uint64),
            np.array([0, 1, 1], dtype=np.intp),
        )
        assert estimator.evaluations == 7

    def test_empty_profile_costs_zero(self):
        estimator = MissEstimator(ConflictProfile(4, np.zeros(16, dtype=np.int64)))
        assert estimator.cost((0b1,)) == 0
        assert estimator.support_size == 0


class _SupportProfile:
    """A profile given by its support alone: a 40-bit window has no
    dense histogram."""

    def __init__(self, n, vectors, weights):
        self.n = n
        self._support = (vectors, weights)

    def support(self):
        return self._support


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
        assert MissEstimator(profile).cost(fn.columns) == \
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
        assert MissEstimator(profile).cost(fn.columns) == \
            estimate_misses_nullspace(profile, fn)

    def test_wide_estimator_agrees_with_nullspace(self):
        n = 20
        counts = np.zeros(1 << n, dtype=np.int64)
        rng = np.random.default_rng(11)
        counts[rng.integers(1, 1 << n, size=200)] = rng.integers(1, 40, size=200)
        profile = ConflictProfile(n, counts)
        fn = XorHashFunction(n, [(1 << c) | (1 << 19) for c in range(8)])
        estimator = MissEstimator(profile)
        assert estimator.cost(fn.columns) == estimate_misses_nullspace(profile, fn)
        candidates = rng.integers(0, 1 << n, size=40).astype(np.uint32)
        batched = assert_front_matches_oracle(
            estimator, profile, [fn.columns], candidates,
            np.zeros(40, dtype=np.intp), np.full(40, 2, dtype=np.intp),
        )
        for cand, cost in zip(candidates[:5], batched[:5]):
            replaced = list(fn.columns)
            replaced[2] = int(cand)
            assert estimate_misses_nullspace(
                profile, XorHashFunction(n, replaced)
            ) == cost

    def test_packed_neighbourhood_matches_oracle(self):
        """n = 20 with residues large enough that the candidate gather
        takes the bit-packed route."""
        n = 20
        rng = np.random.default_rng(13)
        counts = np.zeros(1 << n, dtype=np.int64)
        counts[rng.integers(1, 1 << n, size=4000)] = rng.integers(1, 40, size=4000)
        profile = ConflictProfile(n, counts)
        columns = ((1 << 3) | (1 << 17), (1 << 5) | (1 << 11))
        masks = rng.integers(0, 1 << n, size=64).astype(np.uint64)
        cols = np.repeat(np.arange(2, dtype=np.intp), 32)
        vectors, _ = support_arrays(profile)
        for other in columns:
            assert packing_pays(n, 32 * int(annihilated(vectors, [other]).sum()))
        assert_front_matches_oracle(
            MissEstimator(profile), profile, [columns], masks,
            np.zeros(64, dtype=np.intp), cols,
        )

    def test_uint64_support_matches_oracle(self):
        """n = 40: the support is ``uint64`` and masks reach past bit 32."""
        n = 40
        rng = np.random.default_rng(17)
        vectors = np.unique(rng.integers(1, 1 << n, size=3000, dtype=np.uint64))
        weights = rng.integers(1, 40, size=len(vectors)).astype(np.int64)
        profile = _SupportProfile(n, vectors, weights)
        columns = tuple(map(int, rng.integers(1, 1 << n, size=3, dtype=np.uint64)))
        masks = rng.integers(0, 1 << n, size=60, dtype=np.uint64)
        assert (masks >> np.uint64(32)).any()
        assert_front_matches_oracle(
            MissEstimator(profile), profile, [columns], masks,
            np.zeros(60, dtype=np.intp), rng.integers(0, 3, size=60).astype(np.intp),
        )

    def test_support_dtype_widens_past_32_bits(self):
        from repro.profiling.estimator import _support_dtype

        assert _support_dtype(16) == np.uint32
        assert _support_dtype(32) == np.uint32
        assert _support_dtype(33) == np.uint64

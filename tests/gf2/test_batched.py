"""Tests for the batched single-column rank/key screens."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.batched import (
    ColumnReplacementScreen,
    high_bit_index,
    reduce_by_basis,
)
from repro.gf2.hashfn import XorHashFunction
from repro.gf2.spaces import Subspace, rref_basis

from tests.conftest import hash_functions


class TestHighBitIndex:
    def test_known_values(self):
        values = np.array([0, 1, 2, 3, 8, 1 << 35, (1 << 63) | 1], dtype=np.uint64)
        expected = np.array([-1, 0, 1, 1, 3, 35, 63])
        assert (high_bit_index(values) == expected).all()

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_matches_bit_length(self, value):
        result = int(high_bit_index(np.array([value], dtype=np.uint64))[0])
        assert result == value.bit_length() - 1


class TestReduceByBasis:
    @settings(max_examples=50)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1), max_size=6),
        st.lists(
            st.integers(min_value=0, max_value=(1 << 12) - 1),
            min_size=1,
            max_size=16,
        ),
    )
    def test_zero_iff_in_span(self, span_vectors, candidates):
        n = 12
        basis = rref_basis(span_vectors, n)
        space = Subspace(span_vectors, n)
        reduced = reduce_by_basis(np.array(candidates, dtype=np.uint64), basis)
        for cand, red in zip(candidates, reduced):
            assert (int(red) == 0) == space.contains(cand)

    def test_matches_scalar_reduction(self):
        n = 10
        basis = rref_basis([0b1100000000, 0b0011000000, 0b0000110001], n)
        candidates = np.arange(1 << n, dtype=np.uint64)
        reduced = reduce_by_basis(candidates, basis)
        for cand, red in zip(candidates, reduced):
            expected = int(cand)
            for b in basis:
                expected = min(expected, expected ^ b)
            assert int(red) == expected


def _screen_cases(draw_n=12):
    """Deterministic (function, column, candidates) cases for screens."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(8):
        m = int(rng.integers(2, 7))
        columns = [int(rng.integers(1, 1 << draw_n)) for _ in range(m)]
        fn = XorHashFunction(draw_n, columns)
        c = int(rng.integers(0, m))
        candidates = rng.integers(0, 1 << draw_n, size=40).astype(np.uint64)
        cases.append((fn, c, candidates))
    return cases


class TestFullRankScreen:
    def test_matches_per_candidate_rank(self):
        n = 12
        for fn, c, candidates in _screen_cases(n):
            screen = ColumnReplacementScreen(fn.columns, c, n)
            ok = screen.full_rank(candidates)
            for cand, flag in zip(candidates, ok):
                assert bool(flag) == fn.with_column(c, int(cand)).is_full_rank

    @settings(max_examples=30, deadline=None)
    @given(hash_functions(n=10))
    def test_full_rank_functions(self, fn):
        rng = np.random.default_rng(fn.columns[0])
        candidates = rng.integers(0, 1 << 10, size=32).astype(np.uint64)
        for c in range(fn.m):
            screen = ColumnReplacementScreen(fn.columns, c, 10)
            ok = screen.full_rank(candidates)
            for cand, flag in zip(candidates, ok):
                assert bool(flag) == fn.with_column(c, int(cand)).is_full_rank

    def test_dependent_fixed_columns_reject_everything(self):
        # Columns 0 and 1 equal: removing column 2 leaves a dependent
        # pair, so no replacement of column 2 can reach full rank.
        fn_cols = (0b011, 0b011, 0b100)
        screen = ColumnReplacementScreen(fn_cols, 2, 3)
        assert not screen.full_rank(np.array([1, 2, 4, 7], dtype=np.uint64)).any()

    def test_out_of_range_column(self):
        with pytest.raises(IndexError):
            ColumnReplacementScreen((1, 2), 2, 4)


class TestCanonicalKeys:
    def test_scalar_key_matches_hashfn(self):
        n = 12
        for fn, c, candidates in _screen_cases(n):
            screen = ColumnReplacementScreen(fn.columns, c, n)
            for cand in candidates[:12]:
                expected = fn.with_column(c, int(cand)).canonical_key()
                assert screen.canonical_key_of(int(cand)) == expected

    def test_array_keys_match_hashfn(self):
        n = 12
        for fn, c, candidates in _screen_cases(n):
            screen = ColumnReplacementScreen(fn.columns, c, n)
            rows = screen.canonical_bases(candidates)
            assert rows.shape == (len(candidates), fn.m)
            for cand, row in zip(candidates, rows):
                expected = fn.with_column(c, int(cand)).canonical_key()
                assert screen.key_from_row(row) == expected

    def test_array_and_scalar_keys_agree(self):
        n = 12
        for fn, c, candidates in _screen_cases(n):
            screen = ColumnReplacementScreen(fn.columns, c, n)
            rows = screen.canonical_bases(candidates)
            for cand, row in zip(candidates, rows):
                assert screen.key_from_row(row) == screen.canonical_key_of(int(cand))

    def test_wide_vectors(self):
        """Keys stay exact for 40-bit columns (uint64 territory)."""
        n = 40
        columns = (1 | (1 << 35), 1 << 38, (1 << 20) | (1 << 3))
        fn = XorHashFunction(n, columns)
        candidates = np.array(
            [1 << 39, (1 << 35) | 1, (1 << 34) | (1 << 3), 0], dtype=np.uint64
        )
        for c in range(fn.m):
            screen = ColumnReplacementScreen(fn.columns, c, n)
            ok = screen.full_rank(candidates)
            rows = screen.canonical_bases(candidates)
            for cand, flag, row in zip(candidates, ok, rows):
                replaced = fn.with_column(c, int(cand))
                assert bool(flag) == replaced.is_full_rank
                assert screen.key_from_row(row) == replaced.canonical_key()
                assert screen.canonical_key_of(int(cand)) == replaced.canonical_key()

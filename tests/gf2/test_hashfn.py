"""Unit and property tests for XorHashFunction — the paper's Sec. 2/4 math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.hashfn import XorHashFunction
from repro.gf2.spaces import Subspace
from tests.conftest import (
    hash_functions,
    permutation_hash_functions,
    two_input_permutation_functions,
)


class TestConstruction:
    def test_modulo(self):
        fn = XorHashFunction.modulo(16, 8)
        assert fn.apply(0x1234) == 0x34
        assert fn.is_bit_selecting and fn.is_permutation_based and fn.is_full_rank

    def test_bit_select(self):
        fn = XorHashFunction.bit_select(8, [1, 3, 5])
        assert fn.apply(0b00101010) == 0b111
        assert fn.is_bit_selecting

    def test_bit_select_rejects_duplicates(self):
        with pytest.raises(ValueError):
            XorHashFunction.bit_select(8, [1, 1])

    def test_bit_select_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            XorHashFunction.bit_select(8, [8])

    def test_validation(self):
        with pytest.raises(ValueError):
            XorHashFunction(0, [1])
        with pytest.raises(ValueError):
            XorHashFunction(4, [])
        with pytest.raises(ValueError):
            XorHashFunction(4, [1 << 4])
        with pytest.raises(ValueError):
            XorHashFunction(2, [1, 2, 3])  # more columns than bits

    def test_from_sigma(self):
        fn = XorHashFunction.from_sigma(8, 4, [7, None, 5, 4])
        assert fn.columns == (0b10000001, 0b0010, 0b00100100, 0b00011000)
        assert fn.is_permutation_based and fn.max_fan_in == 2

    def test_from_sigma_validation(self):
        with pytest.raises(ValueError):
            XorHashFunction.from_sigma(8, 4, [3, None, None, None])  # low bit
        with pytest.raises(ValueError):
            XorHashFunction.from_sigma(8, 4, [None] * 3)  # wrong length

    def test_matrix_round_trip(self):
        fn = XorHashFunction(8, [0b11, 0b1100, 0b10101])
        assert XorHashFunction.from_matrix(fn.matrix()) == fn

    def test_dict_round_trip(self):
        fn = XorHashFunction(10, [0b1010101010, 0b11])
        assert XorHashFunction.from_dict(fn.to_dict()) == fn


class TestEvaluation:
    @given(hash_functions(), st.data())
    def test_apply_linear(self, fn, data):
        x = data.draw(st.integers(min_value=0, max_value=(1 << fn.n) - 1))
        y = data.draw(st.integers(min_value=0, max_value=(1 << fn.n) - 1))
        assert fn.apply(x ^ y) == fn.apply(x) ^ fn.apply(y)

    @given(hash_functions())
    def test_apply_array_matches_scalar(self, fn):
        addrs = np.arange(256, dtype=np.uint64) * 37 % (1 << fn.n)
        vector = fn.apply_array(addrs)
        for a, v in zip(addrs, vector):
            assert fn.apply(int(a)) == int(v)

    def test_apply_masks_high_bits(self):
        fn = XorHashFunction.modulo(8, 4)
        assert fn.apply(0x1F05) == 0x5

    def test_apply_matches_matrix_vecmat(self):
        fn = XorHashFunction(8, [0b11, 0b1100, 0b10101])
        matrix = fn.matrix()
        for addr in range(256):
            assert fn.apply(addr) == matrix.vecmat(addr)

    @pytest.mark.parametrize("n", [8, 16, 24, 64])
    @pytest.mark.parametrize("size", [0, 1, 4095, 4096, 100_000])
    def test_apply_array_matches_scalar_at_size(self, n, size):
        import random

        fn = XorHashFunction.random(n, 8, random.Random(n))
        rng = np.random.default_rng(size + n)
        addrs = rng.integers(0, 1 << 63, size=size, dtype=np.uint64) * np.uint64(2)
        addrs |= rng.integers(0, 2, size=size, dtype=np.uint64)
        vector = fn.apply_array(addrs)
        assert vector.dtype == np.uint32 and vector.shape == (size,)
        expected = [fn.apply(int(a)) for a in addrs]
        assert vector.tolist() == expected

    def test_wide_function_array_path(self):
        """n > 16 needs a third per-byte index table."""
        fn = XorHashFunction(20, [0b11 << 17, 0b101, 1 << 19 | 1])
        addrs = np.arange(1000, dtype=np.uint64) * 997
        vector = fn.apply_array(addrs)
        for a, v in zip(addrs[:100], vector[:100]):
            assert fn.apply(int(a)) == int(v)


class TestNullSpace:
    """Paper Eq. 1-2: the null space characterizes conflicts exactly."""

    @given(hash_functions(), st.data())
    def test_eq2_conflict_characterization(self, fn, data):
        x = data.draw(st.integers(min_value=0, max_value=(1 << fn.n) - 1))
        y = data.draw(st.integers(min_value=0, max_value=(1 << fn.n) - 1))
        same_set = fn.apply(x) == fn.apply(y)
        assert same_set == ((x ^ y) in fn.null_space())

    @given(hash_functions(full_rank=False))
    def test_null_space_dimension(self, fn):
        assert fn.null_space().dim == fn.n - fn.rank

    @given(hash_functions())
    def test_null_space_members_hash_to_zero(self, fn):
        for v in fn.null_space():
            assert fn.apply(v) == 0

    @given(hash_functions())
    def test_canonical_key_invariant_under_column_ops(self, fn):
        """XORing one column into another preserves the null space."""
        if fn.m < 2:
            return
        cols = list(fn.columns)
        cols[0] ^= cols[1]
        if cols[0] == 0:
            return
        other = XorHashFunction(fn.n, cols)
        assert other.equivalent_to(fn)
        assert other.null_space() == fn.null_space()

    def test_column_space_is_orthogonal_complement(self):
        fn = XorHashFunction(8, [0b11, 0b1100])
        assert fn.column_space() == fn.null_space().orthogonal_complement()


class TestPermutationFamily:
    """Paper Sec. 4: Eq. 5, permutation form, conflict-free runs."""

    @given(permutation_hash_functions())
    def test_structural_implies_eq5(self, fn):
        assert fn.is_permutation_based
        assert fn.has_permutation_null_space()

    @given(permutation_hash_functions())
    def test_aligned_runs_conflict_free(self, fn):
        """Every aligned run of 2^m blocks maps to a permutation of sets."""
        m = fn.m
        base = 0b1011 << m  # arbitrary aligned run start
        indices = {fn.apply(base + off) for off in range(1 << m)}
        assert len(indices) == 1 << m

    @given(hash_functions(n=10, m=4))
    def test_permutation_form_when_admissible(self, fn):
        if fn.has_permutation_null_space():
            perm = fn.permutation_form()
            assert perm.is_permutation_based
            assert perm.equivalent_to(fn)
        else:
            with pytest.raises(ValueError):
                fn.permutation_form()

    def test_modulo_is_its_own_permutation_form(self):
        fn = XorHashFunction.modulo(8, 4)
        assert fn.permutation_form() == fn

    @given(two_input_permutation_functions())
    def test_sigma_round_trip(self, fn):
        assert XorHashFunction.from_sigma(fn.n, fn.m, fn.sigma()) == fn

    def test_sigma_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            XorHashFunction.bit_select(8, [2, 3]).sigma()

    def test_sigma_rejects_wide_fan_in(self):
        fn = XorHashFunction(8, [0b11110001, 0b10])
        assert fn.is_permutation_based
        with pytest.raises(ValueError):
            fn.sigma()


class TestTagFunction:
    """Paper Sec. 4: tag + index must be jointly bijective."""

    @given(hash_functions(n=10))
    def test_tag_index_bijective(self, fn):
        seen = {}
        for addr in range(1 << fn.n):
            key = (fn.apply(addr), fn.tag_of(addr))
            assert key not in seen, f"addresses {seen.get(key)} and {addr} alias"
            seen[key] = addr

    @given(permutation_hash_functions())
    def test_permutation_tag_is_conventional(self, fn):
        """Sec. 4: permutation-based functions keep the modulo tag."""
        assert fn.tag_bit_positions() == tuple(range(fn.m, fn.n))
        for addr in [0, 1, 12345, (1 << fn.n) - 1, 1 << (fn.n + 3)]:
            assert fn.tag_of(addr) == addr >> fn.m

    @given(hash_functions(n=10))
    def test_tag_array_matches_scalar(self, fn):
        addrs = np.arange(512, dtype=np.uint64) * 31
        tags = fn.tag_array(addrs)
        for a, t in zip(addrs, tags):
            assert fn.tag_of(int(a)) == int(t)

    def test_high_bits_always_in_tag(self):
        fn = XorHashFunction.modulo(8, 4)
        assert fn.tag_of(1 << 8) != fn.tag_of(0)

    def test_rank_deficient_tag_rejected(self):
        fn = XorHashFunction(4, [0b1, 0b1])
        with pytest.raises(ValueError):
            fn.tag_bit_positions()


class TestFamilies:
    @given(hash_functions(full_rank=False))
    def test_max_fan_in(self, fn):
        assert fn.max_fan_in == max(bin(c).count("1") for c in fn.columns)

    @settings(max_examples=20)
    @given(st.integers(min_value=0))
    def test_random_respects_constraints(self, seed):
        rng = np.random.default_rng(seed)
        fn = XorHashFunction.random(12, 6, rng, max_fan_in=3)
        assert fn.max_fan_in <= 3 and fn.is_full_rank
        perm = XorHashFunction.random(12, 6, rng, max_fan_in=2, permutation=True)
        assert perm.is_permutation_based and perm.max_fan_in <= 2

    def test_describe(self):
        fn = XorHashFunction(8, [0b10000001, 0b10])
        lines = fn.describe().splitlines()
        assert lines[0] == "s0 = a0 ^ a7"
        assert lines[1] == "s1 = a1"

    def test_with_column(self):
        fn = XorHashFunction.modulo(8, 4)
        new = fn.with_column(0, 0b10000001)
        assert new.columns[0] == 0b10000001
        assert new.columns[1:] == fn.columns[1:]
        with pytest.raises(IndexError):
            fn.with_column(4, 1)

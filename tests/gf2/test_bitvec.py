"""Unit and property tests for repro.gf2.bitvec."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf2.bitvec import (
    bits_of,
    dot,
    from_bits,
    mask,
    parity,
    _parity16_table,
    parity_array,
    popcount,
    weight_at_most,
)


class TestPopcountParity:
    def test_popcount_known_values(self):
        assert popcount(0) == 0
        assert popcount(1) == 1
        assert popcount(0b1011) == 3
        assert popcount((1 << 64) - 1) == 64

    def test_popcount_rejects_negative(self):
        with pytest.raises(ValueError):
            popcount(-1)

    def test_parity_known_values(self):
        assert parity(0) == 0
        assert parity(0b111) == 1
        assert parity(0b1111) == 0

    @given(st.integers(min_value=0, max_value=1 << 40))
    def test_parity_is_popcount_mod_2(self, x):
        assert parity(x) == popcount(x) % 2

    @given(
        st.integers(min_value=0, max_value=1 << 30),
        st.integers(min_value=0, max_value=1 << 30),
    )
    def test_parity_additive_over_xor(self, x, y):
        assert parity(x ^ y) == parity(x) ^ parity(y)


class TestDot:
    def test_dot_is_parity_of_and(self):
        assert dot(0b1100, 0b1010) == 1  # shares exactly bit 3
        assert dot(0b1100, 0b0011) == 0

    @given(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=0, max_value=1 << 20),
    )
    def test_dot_bilinear(self, x, y, h):
        """GF(2) bilinearity: <x^y, h> = <x,h> ^ <y,h>."""
        assert dot(x ^ y, h) == dot(x, h) ^ dot(y, h)


class TestMaskBits:
    def test_mask(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF

    def test_mask_rejects_negative(self):
        with pytest.raises(ValueError):
            mask(-1)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_bits_round_trip(self, x):
        assert from_bits(bits_of(x, 16)) == x

    def test_from_bits_rejects_non_binary(self):
        with pytest.raises(ValueError):
            from_bits([0, 2, 1])

    def test_weight_at_most(self):
        assert weight_at_most(0b101, 2)
        assert not weight_at_most(0b111, 2)


class TestParityTable:
    """The NumPy 1.x fallback's private 16-bit table."""

    def test_table_shape_and_dtype(self):
        table = _parity16_table()
        assert table.shape == (65536,)
        assert table.dtype == np.uint8

    def test_table_matches_scalar(self):
        table = _parity16_table()
        for value in [0, 1, 2, 3, 0xFF, 0xABC, 0xFFFF, 12345]:
            assert table[value] == parity(value)

    def test_table_is_cached(self):
        assert _parity16_table() is _parity16_table()


#: Operand widths around every fold boundary of the fallback kernel.
WIDTHS = [1, 8, 16, 17, 20, 32, 33, 64]


def _scalar_parities(values: np.ndarray) -> np.ndarray:
    return np.array(
        [parity(int(v)) for v in values.reshape(-1)], dtype=np.uint8
    ).reshape(values.shape)


def _check_widths(n: int, seed: int) -> None:
    """``parity_array`` equals the scalar ``parity`` on ``n``-bit
    operands, 1-D and 2-D, plain and masked by a column."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 1 << 63, size=512, dtype=np.uint64) * np.uint64(2)
    raw |= rng.integers(0, 2, size=512, dtype=np.uint64)
    values = raw & np.uint64((1 << n) - 1)
    col = np.uint64(int(rng.integers(0, 1 << min(n, 63))) | (1 << (n - 1)))
    for operand in (values, values.reshape(16, 32), values & col):
        out = parity_array(operand)
        assert out.dtype == np.uint8 and out.shape == operand.shape
        assert np.array_equal(out, _scalar_parities(operand))


class TestParityArray:
    """The one parity kernel against the scalar ``parity``."""

    @pytest.mark.parametrize("n", WIDTHS)
    def test_matches_scalar_at_width(self, n):
        if not hasattr(np, "bitwise_count"):
            pytest.skip("NumPy < 2.0 has no bitwise_count")
        _check_widths(n, seed=n)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_fallback_matches_scalar_at_width(self, n, monkeypatch):
        import repro.gf2.bitvec as bitvec

        monkeypatch.setattr(bitvec, "_HAS_BITWISE_COUNT", False)
        _check_widths(n, seed=n + 1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_unsigned_dtypes_preserved(self, dtype):
        rng = np.random.default_rng(3)
        bits = 8 * np.dtype(dtype).itemsize
        values = rng.integers(0, 1 << min(bits, 62), size=256).astype(dtype)
        expected = np.array([parity(int(v)) for v in values], dtype=np.uint8)
        out = parity_array(values)
        assert out.dtype == np.uint8
        assert (out == expected).all()

    def test_full_64_bit_values(self, monkeypatch):
        import repro.gf2.bitvec as bitvec

        values = np.array([2**64 - 1, 2**63, 2**63 + 1, 0], dtype=np.uint64)
        expected = np.array([0, 1, 0, 0], dtype=np.uint8)
        assert (parity_array(values) == expected).all()
        monkeypatch.setattr(bitvec, "_HAS_BITWISE_COUNT", False)
        assert (parity_array(values) == expected).all()

    def test_2d_shape_preserved(self):
        values = np.arange(24, dtype=np.uint64).reshape(4, 6)
        out = parity_array(values)
        assert out.shape == (4, 6)
        assert out[0, 3] == parity(3)

    def test_signed_and_list_inputs(self):
        assert (parity_array([0, 1, 3, 7]) == np.array([0, 1, 0, 1])).all()
        signed = np.array([5, 6], dtype=np.int64)
        assert (parity_array(signed) == np.array([0, 0])).all()

    def test_empty(self):
        assert parity_array(np.zeros(0, dtype=np.uint64)).shape == (0,)


class TestNumpyCompatFallback:
    """The parity kernels must not require NumPy >= 2.0.

    ``np.bitwise_count`` is used opportunistically; forcing the
    XOR-fold fallback must produce identical parities for wide masks.
    """

    @given(
        st.integers(min_value=0, max_value=(1 << 62) - 1),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_fallback_matches_bitwise_count(self, col, seed):
        import repro.gf2.bitvec as bitvec

        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << 62, size=64, dtype=np.uint64)
        fast = parity_array(values & np.uint64(col))
        original = bitvec._HAS_BITWISE_COUNT
        bitvec._HAS_BITWISE_COUNT = False
        try:
            slow = parity_array(values & np.uint64(col))
        finally:
            bitvec._HAS_BITWISE_COUNT = original
        assert (fast == slow).all()
        expected = np.array(
            [parity(int(v) & col) for v in values], dtype=np.uint8
        )
        assert (slow == expected).all()

    def test_parity_table_needs_no_bitwise_count(self, monkeypatch):
        import repro.gf2.bitvec as bitvec

        monkeypatch.setattr(bitvec, "_parity16", None)
        table = bitvec._parity16_table()
        assert table.shape == (65536,)
        for value in [0, 1, 0b11, 0xFFFF, 0xABC]:
            assert table[value] == parity(value)
        monkeypatch.setattr(bitvec, "_parity16", None)

    def test_wide_hash_function_on_fallback(self, monkeypatch):
        """XorHashFunction.apply_array n > 16 path under NumPy 1.x."""
        import repro.gf2.bitvec as bitvec
        from repro.gf2.hashfn import XorHashFunction

        fn = XorHashFunction.random(24, 8, np.random.default_rng(3))
        addrs = np.random.default_rng(4).integers(0, 1 << 24, size=256).astype(np.uint64)
        with_count = fn.apply_array(addrs)
        monkeypatch.setattr(bitvec, "_HAS_BITWISE_COUNT", False)
        # A fresh copy rebuilds its byte tables on the fallback kernel.
        without_count = XorHashFunction(fn.n, fn.columns).apply_array(addrs)
        assert (with_count == without_count).all()
        expected = np.array([fn.apply(int(a)) for a in addrs], dtype=np.uint32)
        assert (without_count == expected).all()

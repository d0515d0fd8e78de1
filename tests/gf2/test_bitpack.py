"""Bit-packed GF(2) kernels vs the elementwise oracles.

``pack_bits``/``pack_bit_planes`` must round-trip, and the packed
parity/popcount kernels must be bit-identical to the elementwise
``parity_array`` / ``parity(v & h)`` definitions across window widths
n ∈ {8, 16, 20, 33, 64} — including the widths above 16 bits, which is
exactly where the packing rule routes the estimator through this
module.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.bitpack import (
    pack_bit_planes,
    pack_bits,
    packed_parity_rows,
    packing_pays,
    unpack_bits,
    weighted_popcount,
)
from repro.gf2.bitvec import parity_array

WIDTHS = (8, 16, 20, 33, 64)


def _mask(n: int) -> np.uint64:
    return np.uint64((1 << n) - 1 if n < 64 else (1 << 64) - 1)


def _vectors(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    raw = rng.integers(0, 1 << 63, size=count, dtype=np.uint64) * 2 + (
        rng.integers(0, 2, size=count, dtype=np.uint64)
    )
    return raw & _mask(n)


class TestPackRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=300))
    def test_pack_unpack_round_trip(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        words = pack_bits(bits)
        assert words.dtype == np.uint64
        assert len(words) == (len(bits) + 63) // 64
        assert np.array_equal(unpack_bits(words, len(bits)), bits)

    def test_tail_bits_are_zero(self):
        words = pack_bits(np.ones(65, dtype=np.uint8))
        assert words[1] == 1  # only bit 64 set in the second word

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 200])
    def test_planes_hold_each_bit(self, n, count):
        rng = np.random.default_rng(count * 101 + n)
        vectors = _vectors(rng, count, n)
        planes = pack_bit_planes(vectors, n)
        assert planes.shape == (n, (count + 63) // 64)
        for i in range(n):
            want = ((vectors >> np.uint64(i)) & np.uint64(1)).astype(np.uint8)
            assert np.array_equal(unpack_bits(planes[i], count), want)


class TestPackedParity:
    @pytest.mark.parametrize("n", WIDTHS)
    def test_matches_elementwise_parity(self, n):
        rng = np.random.default_rng(n)
        vectors = _vectors(rng, 150, n)
        masks = _vectors(rng, 37, n)
        planes = pack_bit_planes(vectors, n)
        rows = packed_parity_rows(planes, masks)
        want = parity_array(masks[:, None] & vectors[None, :])
        got = unpack_bits(rows, len(vectors))
        assert np.array_equal(got, want)

    def test_empty_masks_and_vectors(self):
        planes = pack_bit_planes(np.zeros(0, dtype=np.uint64), 8)
        rows = packed_parity_rows(planes, np.zeros(0, dtype=np.uint64))
        assert rows.shape == (0, 0)
        planes = pack_bit_planes(np.arange(5, dtype=np.uint64), 8)
        rows = packed_parity_rows(planes, np.zeros(0, dtype=np.uint64))
        assert rows.shape == (0, 1)

    def test_zero_mask_row_is_zero(self):
        vectors = np.arange(1, 130, dtype=np.uint64)
        planes = pack_bit_planes(vectors, 8)
        rows = packed_parity_rows(planes, np.zeros(1, dtype=np.uint64))
        assert not rows.any()


class TestPackedReductions:
    @pytest.mark.parametrize("n", WIDTHS)
    def test_weighted_popcount_matches_matmul(self, n):
        rng = np.random.default_rng(n + 13)
        vectors = _vectors(rng, 173, n)
        masks = _vectors(rng, 9, n)
        weights = rng.integers(1, 1000, size=len(vectors)).astype(np.int64)
        rows = packed_parity_rows(pack_bit_planes(vectors, n), masks)
        odd = parity_array(masks[:, None] & vectors[None, :])
        want = odd.astype(np.int64) @ weights
        assert np.array_equal(weighted_popcount(rows, weights), want)

    def test_weighted_popcount_empty(self):
        rows = np.zeros((3, 0), dtype=np.uint64)
        weights = np.zeros(0, dtype=np.int64)
        assert np.array_equal(
            weighted_popcount(rows, weights), np.zeros(3, dtype=np.int64)
        )


class TestEstimatorRouting:
    """The estimator's packed and elementwise routes agree exactly."""

    class _Profile:
        def __init__(self, n, vectors, weights):
            self.n = n
            self._support = (vectors, weights)

        def support(self):
            return self._support

    @pytest.mark.parametrize("n", [20, 33, 64])
    def test_odd_weights_routes_agree(self, n, monkeypatch):
        import repro.gf2.bitpack as bitpack
        from repro.profiling.estimator import MissEstimator

        rng = np.random.default_rng(n)
        vectors = np.unique(_vectors(rng, 400, n))
        weights = rng.integers(1, 50, size=len(vectors)).astype(np.int64)
        estimator = MissEstimator(self._Profile(n, vectors, weights))
        candidates = _vectors(rng, 64, n)
        assert packing_pays(n, len(candidates) * len(vectors))
        packed = estimator._odd_weights(candidates, estimator._vectors,
                                        estimator._weights)
        monkeypatch.setattr(bitpack, "PACKED_MIN_ELEMENTS", 1 << 62)
        assert not packing_pays(n, len(candidates) * len(vectors))
        elementwise = estimator._odd_weights(
            candidates, estimator._vectors, estimator._weights
        )
        assert np.array_equal(packed, elementwise)

    @pytest.mark.parametrize("n", [20, 33])
    def test_parity_row_matches_elementwise(self, n):
        from repro.profiling.estimator import MissEstimator

        rng = np.random.default_rng(n + 1)
        vectors = np.unique(_vectors(rng, 300, n))
        weights = np.ones(len(vectors), dtype=np.int64)
        estimator = MissEstimator(self._Profile(n, vectors, weights))
        for mask in _vectors(rng, 8, n):
            want = parity_array(vectors & mask)
            assert np.array_equal(estimator._parity_row(int(mask)), want)


class TestPackingRule:
    def test_narrow_windows_never_pack(self):
        assert not packing_pays(16)
        assert not packing_pays(16, 1 << 30)

    def test_wide_windows_pack_amortized_or_large_batches(self):
        assert packing_pays(17)
        assert packing_pays(17, 1 << 12)
        assert not packing_pays(17, (1 << 12) - 1)

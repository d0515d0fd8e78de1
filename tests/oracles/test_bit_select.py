"""The enumeration oracle itself: every selection, exactly once."""

import math

import pytest

from tests.oracles.bit_select import enumerate_bit_select_masks


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

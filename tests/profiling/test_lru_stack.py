"""Tests for the LRU stack."""

import pytest

from tests.oracles.profile import LRUStack


class TestLruStack:
    def test_push_and_membership(self):
        stack = LRUStack()
        stack.push(1)
        stack.push(2)
        assert 1 in stack and 2 in stack and 3 not in stack
        assert len(stack) == 2

    def test_top_down_order(self):
        stack = LRUStack()
        for b in (1, 2, 3):
            stack.push(b)
        assert list(stack.top_down()) == [3, 2, 1]

    def test_push_moves_to_top(self):
        stack = LRUStack()
        for b in (1, 2, 3):
            stack.push(b)
        stack.push(1)
        assert list(stack.top_down()) == [1, 3, 2]
        assert len(stack) == 3

    def test_blocks_above(self):
        stack = LRUStack()
        for b in (1, 2, 3, 4):
            stack.push(b)
        assert stack.blocks_above(4, limit=10) == []
        assert stack.blocks_above(2, limit=10) == [4, 3]
        assert stack.blocks_above(1, limit=10) == [4, 3, 2]

    def test_blocks_above_limit(self):
        stack = LRUStack()
        for b in (1, 2, 3, 4):
            stack.push(b)
        assert stack.blocks_above(1, limit=3) == [4, 3, 2]
        assert stack.blocks_above(1, limit=2) is None

    def test_blocks_above_missing_raises(self):
        stack = LRUStack()
        with pytest.raises(KeyError):
            stack.blocks_above(9, limit=1)

    def test_depth_of(self):
        stack = LRUStack()
        for b in (1, 2, 3):
            stack.push(b)
        assert stack.depth_of(3) == 0
        assert stack.depth_of(1) == 2
        assert stack.depth_of(9) is None

    def test_clear(self):
        stack = LRUStack()
        stack.push(1)
        stack.clear()
        assert len(stack) == 0

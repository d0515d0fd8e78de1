"""Tests for the skewed-associative cache baseline."""

import numpy as np
import pytest

from repro.cache.engine import simulate, simulate_banks
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import ModuloIndexing, XorIndexing
from repro.gf2.hashfn import XorHashFunction


def _banks(m=8):
    plain = ModuloIndexing(m)
    hashed = XorIndexing(
        XorHashFunction.from_sigma(16, m, [m + (c % 4) for c in range(m)])
    )
    return [plain, hashed]


class TestSkewed:
    def test_requires_two_banks(self):
        with pytest.raises(ValueError):
            simulate_banks(np.zeros(1, dtype=np.uint64), [ModuloIndexing(4)])

    def test_bank_set_counts_must_agree(self):
        with pytest.raises(ValueError):
            simulate_banks(
                np.zeros(1, dtype=np.uint64), [ModuloIndexing(4), ModuloIndexing(5)]
            )

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 4096, size=2000).astype(np.uint64)
        a = simulate_banks(blocks, _banks(), seed=3)
        b = simulate_banks(blocks, _banks(), seed=3)
        assert a == b

    def test_beats_direct_mapped_on_conflict_pattern(self):
        """Seznec's motivation: skewing absorbs modulo conflicts."""
        streams = [k * 1024 + np.arange(32, dtype=np.uint64) for k in range(4)]
        blocks = np.tile(np.stack(streams, axis=1).reshape(-1), 20)
        dm = simulate(blocks, CacheGeometry.direct_mapped(256 * 4))
        skewed = simulate_banks(blocks, _banks(8), seed=0)
        assert skewed.misses < dm.misses

    def test_empty(self):
        stats = simulate_banks(np.zeros(0, dtype=np.uint64), _banks())
        assert stats.accesses == 0

"""Tests for exact evaluation through the cached pipeline entry points."""

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import ModuloIndexing, XorIndexing
from repro.gf2.hashfn import XorHashFunction
from repro.pipeline.context import PipelineContext
from repro.trace.trace import Trace


@pytest.fixture
def trace():
    return Trace(np.tile(np.array([0, 1024, 0, 1024], dtype=np.uint64), 25))


class TestEvaluate:
    def test_baseline_is_modulo(self, trace):
        geometry = CacheGeometry.direct_mapped(1024)
        context = PipelineContext()
        base = context.baseline(trace, geometry)
        direct = context.simulate(trace, geometry, ModuloIndexing(8))
        assert base == direct
        assert base.misses == 100  # 0 and 1024 ping-pong in set 0

    def test_hash_function_evaluation(self, trace):
        geometry = CacheGeometry.direct_mapped(1024)
        fn = XorHashFunction.from_sigma(16, 8, [8] + [None] * 7)
        stats = PipelineContext().evaluate(trace, geometry, fn)
        assert stats.misses == 2

    def test_m_mismatch_rejected(self, trace):
        geometry = CacheGeometry.direct_mapped(1024)
        context = PipelineContext()
        wide = XorHashFunction.modulo(16, 10)
        with pytest.raises(ValueError):
            context.evaluate(trace, geometry, wide)
        with pytest.raises(ValueError):
            context.evaluate_many(trace, geometry, [wide])

    def test_set_count_mismatch_rejected(self, trace):
        geometry = CacheGeometry.direct_mapped(1024)
        with pytest.raises(ValueError):
            PipelineContext().simulate(trace, geometry, ModuloIndexing(9))

    def test_set_associative_path(self, trace):
        geometry = CacheGeometry(1024, block_size=4, associativity=2)
        stats = PipelineContext().simulate(trace, geometry, ModuloIndexing(7))
        assert stats.misses == 2  # two ways absorb the ping-pong

    def test_compare_indexings(self, trace):
        geometry = CacheGeometry.direct_mapped(1024)
        context = PipelineContext()
        fn = XorHashFunction.from_sigma(16, 8, [8] + [None] * 7)
        modulo = context.simulate(trace, geometry, ModuloIndexing(8))
        xor = context.simulate(trace, geometry, XorIndexing(fn))
        assert xor == context.evaluate(trace, geometry, fn)
        assert xor.misses < modulo.misses

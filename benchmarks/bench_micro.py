"""Micro-benchmarks of the engine primitives.

Not paper artifacts, but throughput guards for the pieces that
determine experiment runtime: the Fig. 1 profiler, the Eq. 4
estimator, and the vectorized direct-mapped simulator.
"""

import numpy as np
import pytest

from repro.cache.engine import simulate
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import BitSelectIndexing, ModuloIndexing, XorIndexing
from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import profile_blocks
from repro.profiling.estimator import MissEstimator


@pytest.fixture(scope="module")
def blocks():
    rng = np.random.default_rng(42)
    loops = np.tile(np.arange(400, dtype=np.uint64), 100)
    noise = rng.integers(0, 1 << 14, size=40_000).astype(np.uint64)
    return np.concatenate([loops, noise, loops])


@pytest.fixture(scope="module")
def profile(blocks):
    return profile_blocks(blocks, 1024, 16)


def test_profiler_throughput(benchmark, blocks):
    result = benchmark(profile_blocks, blocks, 1024, 16)
    assert result.accesses == len(blocks)


def test_simulator_modulo_throughput(benchmark, blocks):
    pol = ModuloIndexing(10)
    stats = benchmark(simulate, blocks, CacheGeometry.direct_mapped(4096), pol)
    assert stats.accesses == len(blocks)


def test_simulator_xor_throughput(benchmark, blocks):
    fn = XorHashFunction.from_sigma(
        16, 10, [15, 14, 13, 12, 11, 10, None, 15, 14, 13]
    )
    pol = XorIndexing(fn)
    stats = benchmark(simulate, blocks, CacheGeometry.direct_mapped(4096), pol)
    assert stats.accesses == len(blocks)


def test_estimator_throughput(benchmark, profile):
    estimator = MissEstimator(profile)
    fn = XorHashFunction.modulo(16, 10)
    cost = benchmark(estimator.cost, fn.columns)
    assert cost >= 0


def test_batched_column_eval_throughput(benchmark, profile):
    estimator = MissEstimator(profile)
    fn = XorHashFunction.modulo(16, 10)
    candidates = np.array(
        [(1 << 0) | (1 << j) for j in range(10, 16)], dtype=np.uint32
    )
    column_0 = np.zeros(len(candidates), dtype=np.intp)  # owner and column
    costs = benchmark(
        estimator.costs_for_moves_front, (fn.columns,), candidates, column_0, column_0
    )
    assert len(costs) == len(candidates)


def test_simulator_bit_select_throughput(benchmark, blocks):
    pol = BitSelectIndexing(16, range(10))
    stats = benchmark(simulate, blocks, CacheGeometry.direct_mapped(4096), pol)
    assert stats.misses > 0

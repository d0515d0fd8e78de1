"""Property tests: the unified engine vs the scalar reference oracles.

The engine's kernels must be *bit-identical* to the retained loop
simulators — misses and compulsory counts — on every organization,
across random geometries, random full-rank hash functions, synthetic
hypothesis traces and real MiBench/PowerStone kernels.  ``evaluate_many``
must exactly match per-candidate sequential simulation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.engine import (
    evaluate_many,
    lru_miss_vector,
    misses_for_index_streams,
    simulate,
    simulate_banks,
    simulate_capacity,
    stats_from_misses,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import BitSelectIndexing, ModuloIndexing, XorIndexing
from repro.gf2.hashfn import XorHashFunction
from repro.workloads.registry import get_workload

from tests.conftest import block_traces, hash_functions
from tests.oracles.cache import (
    simulate_direct_mapped_scalar,
    simulate_fully_associative_scalar,
    simulate_set_associative_scalar,
    simulate_skewed_scalar,
)

N = 14  # hashed window for the random-function matrix (traces use < 2^14 blocks)


def _real_blocks(suite: str, name: str, block_size: int = 4) -> np.ndarray:
    trace = get_workload(suite, name, "tiny", 0).data
    return trace.block_addresses(block_size)


REAL_WORKLOADS = [
    ("mibench", "fft"),
    ("mibench", "dijkstra"),
    ("powerstone", "ucbqsort"),
    ("powerstone", "g3fax"),
]


class TestDirectMappedProperty:
    @settings(max_examples=60, deadline=None)
    @given(blocks=block_traces(), fn=hash_functions(n=N, full_rank=True))
    def test_engine_matches_scalar_xor(self, blocks, fn):
        indexing = XorIndexing(fn)
        geometry = CacheGeometry.direct_mapped((1 << fn.m) * 4)
        assert simulate(blocks, geometry, indexing) == (
            simulate_direct_mapped_scalar(blocks, indexing)
        )

    @settings(max_examples=30, deadline=None)
    @given(blocks=block_traces(), m=st.integers(min_value=0, max_value=8))
    def test_engine_matches_scalar_modulo(self, blocks, m):
        indexing = ModuloIndexing(m)
        geometry = CacheGeometry.direct_mapped((1 << m) * 4)
        assert simulate(blocks, geometry, indexing) == (
            simulate_direct_mapped_scalar(blocks, indexing)
        )

    @settings(max_examples=30, deadline=None)
    @given(blocks=block_traces(), fn=hash_functions(n=N, full_rank=True))
    def test_miss_vector_count_consistent(self, blocks, fn):
        misses = lru_miss_vector(fn.apply_array(blocks), blocks, 1)
        assert int(misses.sum()) == (
            simulate_direct_mapped_scalar(blocks, XorIndexing(fn)).misses
        )

    @pytest.mark.parametrize("suite,name", REAL_WORKLOADS)
    def test_real_traces(self, suite, name):
        blocks = _real_blocks(suite, name)
        for m in (6, 8, 10):
            fn = XorHashFunction.random(16, m, np.random.default_rng(m))
            indexing = XorIndexing(fn)
            geometry = CacheGeometry.direct_mapped((1 << m) * 4)
            assert simulate(blocks, geometry, indexing) == (
                simulate_direct_mapped_scalar(blocks, indexing)
            )


class TestLruProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        blocks=block_traces(),
        fn=hash_functions(n=N, m=4, full_rank=True),
        ways_log2=st.integers(min_value=1, max_value=4),
    )
    def test_engine_matches_scalar(self, blocks, fn, ways_log2):
        ways = 1 << ways_log2
        geometry = CacheGeometry(
            (1 << fn.m) * ways * 4, block_size=4, associativity=ways
        )
        indexing = XorIndexing(fn)
        assert simulate(blocks, geometry, indexing) == (
            simulate_set_associative_scalar(blocks, geometry, indexing)
        )

    @pytest.mark.parametrize("suite,name", REAL_WORKLOADS)
    @pytest.mark.parametrize("ways", [2, 4])
    def test_real_traces(self, suite, name, ways):
        blocks = _real_blocks(suite, name)
        geometry = CacheGeometry(4096, block_size=4, associativity=ways)
        assert simulate(blocks, geometry) == (
            simulate_set_associative_scalar(blocks, geometry)
        )

    def test_single_way_matches_direct_mapped(self):
        """The LRU depth kernel at one way agrees with the sort kernel
        ``simulate`` counts a 1-way geometry with."""
        blocks = _real_blocks("powerstone", "ucbqsort")
        geometry = CacheGeometry.direct_mapped(1024)
        set_ids = ModuloIndexing(geometry.index_bits).set_index_array(blocks)
        one_way = stats_from_misses(blocks, lru_miss_vector(set_ids, blocks, 1))
        assert simulate(blocks, geometry) == one_way


class TestFullyAssociativeProperty:
    @settings(max_examples=40, deadline=None)
    @given(blocks=block_traces(), capacity=st.integers(min_value=1, max_value=40))
    def test_engine_matches_scalar(self, blocks, capacity):
        assert simulate_capacity(blocks, capacity) == (
            simulate_fully_associative_scalar(blocks, capacity)
        )

    @settings(max_examples=40, deadline=None)
    @given(blocks=block_traces(max_block=1 << 64))
    def test_single_frame_matches_scalar(self, blocks):
        """One frame runs the depth kernel at threshold 1."""
        assert simulate_capacity(blocks, 1) == (
            simulate_fully_associative_scalar(blocks, 1)
        )

    @pytest.mark.parametrize("suite,name", REAL_WORKLOADS)
    def test_real_traces(self, suite, name):
        blocks = _real_blocks(suite, name)
        assert simulate_capacity(blocks, 256) == (
            simulate_fully_associative_scalar(blocks, 256)
        )


class TestSkewedProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        blocks=block_traces(),
        fn=hash_functions(n=N, m=5, full_rank=True),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_engine_matches_scalar(self, blocks, fn, seed):
        banks = [ModuloIndexing(fn.m), XorIndexing(fn)]
        assert simulate_banks(blocks, banks, seed=seed) == (
            simulate_skewed_scalar(blocks, banks, seed=seed)
        )

    @pytest.mark.parametrize("suite,name", REAL_WORKLOADS)
    def test_real_traces(self, suite, name):
        blocks = _real_blocks(suite, name)
        fn = XorHashFunction.random(16, 9, np.random.default_rng(7))
        banks = [ModuloIndexing(9), XorIndexing(fn)]
        assert simulate_banks(blocks, banks, seed=3) == (
            simulate_skewed_scalar(blocks, banks, seed=3)
        )

    def test_rejects_single_bank(self):
        with pytest.raises(ValueError):
            simulate_banks(np.arange(4, dtype=np.uint64), [ModuloIndexing(4)])


class TestEvaluateMany:
    @settings(max_examples=25, deadline=None)
    @given(
        blocks=block_traces(),
        seeds=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=1, max_size=6
        ),
    )
    def test_matches_sequential_direct_mapped(self, blocks, seeds):
        m = 6
        geometry = CacheGeometry.direct_mapped((1 << m) * 4)
        functions = [
            XorHashFunction.random(N, m, np.random.default_rng(s)) for s in seeds
        ]
        batched = evaluate_many(blocks, geometry, functions)
        sequential = [
            simulate(blocks, geometry, XorIndexing(fn)) for fn in functions
        ]
        assert batched == sequential

    @settings(max_examples=10, deadline=None)
    @given(blocks=block_traces())
    def test_matches_sequential_set_associative(self, blocks):
        m = 4
        geometry = CacheGeometry((1 << m) * 2 * 4, block_size=4, associativity=2)
        functions = [
            XorHashFunction.random(N, m, np.random.default_rng(s)) for s in range(3)
        ]
        batched = evaluate_many(blocks, geometry, functions)
        sequential = [
            simulate(blocks, geometry, XorIndexing(fn)) for fn in functions
        ]
        assert batched == sequential

    @pytest.mark.parametrize("suite,name", REAL_WORKLOADS)
    def test_real_traces(self, suite, name):
        trace = get_workload(suite, name, "tiny", 0).data
        geometry = CacheGeometry.direct_mapped(1024)
        functions = [
            XorHashFunction.random(16, geometry.index_bits, np.random.default_rng(s))
            for s in range(8)
        ]
        batched = evaluate_many(trace, geometry, functions)
        blocks = trace.block_addresses(geometry.block_size)
        sequential = [
            simulate(blocks, geometry, XorIndexing(fn)) for fn in functions
        ]
        assert batched == sequential

    def test_accepts_trace_and_blocks(self, conflict_trace):
        geometry = CacheGeometry.direct_mapped(1024)
        fns = [XorHashFunction.modulo(16, 8)]
        from_trace = evaluate_many(conflict_trace, geometry, fns)
        from_blocks = evaluate_many(
            conflict_trace.block_addresses(geometry.block_size), geometry, fns
        )
        assert from_trace == from_blocks

    def test_empty_inputs(self):
        geometry = CacheGeometry.direct_mapped(1024)
        assert evaluate_many(np.zeros(0, dtype=np.uint64), geometry, []) == []
        fns = [XorHashFunction.modulo(16, 8)]
        stats = evaluate_many(np.zeros(0, dtype=np.uint64), geometry, fns)
        assert stats[0].accesses == 0 and stats[0].misses == 0

    def test_width_mismatch_rejected(self):
        geometry = CacheGeometry.direct_mapped(1024)
        with pytest.raises(ValueError):
            evaluate_many(
                np.arange(8, dtype=np.uint64),
                geometry,
                [XorHashFunction.modulo(16, 9)],
            )

    def test_rank_deficient_rejected(self):
        """Same contract as XorIndexing on the sequential path."""
        deficient = XorHashFunction(16, [1, 1] + [1 << c for c in range(2, 8)])
        assert not deficient.is_full_rank
        with pytest.raises(ValueError, match="full-rank"):
            evaluate_many(
                np.arange(8, dtype=np.uint64),
                CacheGeometry.direct_mapped(1024),
                [deficient],
            )


class TestBatchedKernels:
    @settings(max_examples=30, deadline=None)
    @given(
        blocks=block_traces(),
        masks=st.lists(
            st.integers(min_value=0, max_value=(1 << N) - 1),
            min_size=1,
            max_size=5,
        ),
    )
    def test_stream_scoring_matches_bit_select(self, blocks, masks):
        ids = np.stack(
            [blocks & np.uint64(mask_value) for mask_value in masks], axis=0
        )
        scored = misses_for_index_streams(ids, blocks)
        expected = []
        for mask_value in masks:
            bits = [r for r in range(N) if (mask_value >> r) & 1]
            policy = BitSelectIndexing(N, bits) if bits else ModuloIndexing(0)
            expected.append(simulate_direct_mapped_scalar(blocks, policy).misses)
        assert scored.tolist() == expected


class TestDispatchSimulate:
    def test_geometry_dispatch_consistency(self):
        blocks = _real_blocks("mibench", "fft")
        direct = CacheGeometry.direct_mapped(1024)
        assert simulate(blocks, direct) == simulate_direct_mapped_scalar(
            blocks, ModuloIndexing(direct.index_bits)
        )
        assoc = CacheGeometry(1024, block_size=4, associativity=4)
        assert simulate(blocks, assoc) == simulate_set_associative_scalar(
            blocks, assoc
        )
        fa = CacheGeometry.fully_associative(1024)
        assert simulate(blocks, fa) == simulate_capacity(blocks, 256)

    def test_set_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate(
                np.arange(8, dtype=np.uint64),
                CacheGeometry.direct_mapped(1024),
                ModuloIndexing(9),
            )

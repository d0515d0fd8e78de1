"""End-to-end integration tests reproducing the paper's qualitative claims
at reduced scale."""

import numpy as np
import pytest

from repro.cache.engine import simulate, simulate_capacity
from repro.cache.geometry import CacheGeometry
from repro.core.optimizer import optimize_for_trace
from repro.hardware.network import PermutationNetwork
from repro.profiling.conflict_profile import profile_trace
from repro.trace.trace import Trace
from repro.workloads.registry import get_workload


class TestHeadlineClaim:
    """Optimized XOR-indexing removes most conflict misses."""

    def test_fft_icache_conflicts_removed_at_4kb(self):
        """fft's butterfly/sin 4 KB alias is a pure conflict pattern."""
        trace = get_workload("mibench", "fft", scale="tiny").instructions
        geometry = CacheGeometry.direct_mapped(4096)
        result = optimize_for_trace(trace, geometry, family="2-in")
        assert result.removed_percent > 60

    def test_stream_conflicts_removed(self, conflict_trace, geometry_1kb):
        result = optimize_for_trace(conflict_trace, geometry_1kb, family="2-in")
        # Only compulsory misses remain.
        assert result.optimized.misses == result.optimized.compulsory


class TestPaperShapeClaims:
    @pytest.fixture(scope="class")
    def mpeg2_results(self):
        trace = get_workload("mibench", "mpeg2_dec", scale="tiny").data
        geometry = CacheGeometry.direct_mapped(4096)
        profile = profile_trace(trace, geometry, 16)
        return {
            family: optimize_for_trace(
                trace, geometry, family=family, profile=profile
            )
            for family in ("1-in", "2-in", "4-in", "16-in", "general")
        }

    def test_fan_in_beyond_two_buys_little(self, mpeg2_results):
        """Table 2's message: 2-in is within a few points of 16-in."""
        est = {f: r.search.estimated_misses for f, r in mpeg2_results.items()}
        assert est["16-in"] <= est["4-in"] <= est["2-in"]
        start = mpeg2_results["2-in"].search.start_misses
        if start:
            gap = 100.0 * (est["2-in"] - est["16-in"]) / start
            assert gap < 15.0

    def test_xor_at_least_as_good_as_bit_select(self, mpeg2_results):
        """Sec. 6.1: XOR functions dominate bit selection (same objective,
        superset family)."""
        assert (
            mpeg2_results["2-in"].search.estimated_misses
            <= mpeg2_results["1-in"].search.estimated_misses
        )

    def test_permutation_close_to_general(self, mpeg2_results):
        est16 = mpeg2_results["16-in"].search.estimated_misses
        est_general = mpeg2_results["general"].search.estimated_misses
        start = mpeg2_results["general"].search.start_misses
        if start:
            assert abs(est16 - est_general) / max(start, 1) < 0.10


class TestHashingCanBeatFullAssociativity:
    def test_lru_pathology(self):
        """Sec. 6.1: FA-LRU is no upper bound.  A cyclic scan of
        capacity+k blocks never hits under LRU but a hashed DM cache
        keeps most of it."""
        capacity = 256
        loop = np.arange(capacity + 8, dtype=np.uint64)
        blocks = np.tile(loop, 30)
        fa = simulate_capacity(blocks, capacity)
        assert fa.hits == 0  # the LRU pathology
        dm = simulate(blocks, CacheGeometry.direct_mapped(capacity * 4))
        assert dm.hits > 0.8 * len(blocks)

    def test_optimized_function_beats_fa_on_pathology(self):
        capacity = 256
        loop = np.arange(capacity + 8, dtype=np.uint64)
        trace = Trace(4 * np.tile(loop, 30), name="cyclic")
        geometry = CacheGeometry.direct_mapped(1024)
        result = optimize_for_trace(trace, geometry, family="2-in")
        fa = simulate_capacity(trace.block_addresses(4), geometry.num_blocks)
        assert result.optimized.misses < fa.misses


class TestHardwareDeployment:
    def test_full_flow_to_config_bits(self, conflict_trace, geometry_1kb):
        """Profile -> search -> permutation network config bits."""
        result = optimize_for_trace(conflict_trace, geometry_1kb, family="2-in")
        network = PermutationNetwork(16, 8)
        network.configure_from(result.hash_function)
        bits = [b for sel in network.second_input_selectors for b in sel.config_bits()]
        assert len(bits) == network.switch_count == 72
        assert sum(bits) == 8  # one-hot per selector
        blocks = conflict_trace.block_addresses(4)
        net_idx = np.array([network.index_of(int(b)) for b in blocks[:500]])
        fn_idx = result.hash_function.apply_array(blocks[:500])
        assert (net_idx == fn_idx).all()


class TestProfileIsCapacityAware:
    def test_capacity_trace_yields_empty_profile(self):
        """A pure streaming trace has no profilable conflicts."""
        trace = Trace(4 * np.arange(100_000, dtype=np.uint64))
        geometry = CacheGeometry.direct_mapped(1024)
        profile = profile_trace(trace, geometry, 16)
        assert profile.total_weight == 0
        assert profile.compulsory == 100_000

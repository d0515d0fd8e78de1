"""Bench: ablations of the paper's design choices (see DESIGN.md §4).

* estimator fidelity (Eq. 4 vs exact simulation, rank correlation);
* the capacity filter's effect on optimization quality;
* random restarts vs the paper's single-start search.
"""

from benchmarks.conftest import bench_scale, publish
from repro.cache.geometry import CacheGeometry
from repro.experiments.ablations import (
    capacity_filter_ablation,
    estimator_fidelity,
    optimality_gap,
    restarts_ablation,
)
from repro.workloads.registry import get_workload


def test_estimator_fidelity(benchmark, results_dir):
    trace = get_workload("mibench", "mpeg2_dec", bench_scale()).data
    geometry = CacheGeometry.direct_mapped(4096)
    result = benchmark.pedantic(
        estimator_fidelity,
        args=(trace, geometry),
        kwargs={"samples": 30},
        rounds=1,
        iterations=1,
    )
    text = (
        "Ablation: Eq. 4 estimator fidelity (mpeg2_dec, 4KB)\n"
        f"sampled functions: {result.sampled_functions}\n"
        f"Spearman rank correlation (estimate vs exact): {result.spearman_rho:.3f}"
    )
    publish(results_dir, "ablation_estimator", text)
    assert result.ranks_well


def test_capacity_filter(benchmark, results_dir):
    trace = get_workload("mibench", "dijkstra", bench_scale()).data
    geometry = CacheGeometry.direct_mapped(1024)
    result = benchmark.pedantic(
        capacity_filter_ablation, args=(trace, geometry), rounds=1, iterations=1
    )
    text = (
        "Ablation: capacity filter (dijkstra, 1KB)\n"
        f"baseline misses:        {result.baseline_misses}\n"
        f"optimized w/ filter:    {result.with_filter_misses}\n"
        f"optimized w/o filter:   {result.without_filter_misses}"
    )
    publish(results_dir, "ablation_capacity_filter", text)
    # The filter may tie but must not be substantially worse.
    assert result.with_filter_misses <= result.without_filter_misses * 1.05


def test_optimality_gap(benchmark, results_dir):
    """Sec. 6.1's 'room for improvement', measured: hill climbing vs the
    exhaustive global optimum on an 8-bit hashed window."""
    trace = get_workload("powerstone", "compress", bench_scale()).data
    blocks = trace.block_addresses(4)
    result = benchmark.pedantic(
        optimality_gap,
        args=(blocks, 256),
        kwargs={"n": 8, "m": 4},
        rounds=1,
        iterations=1,
    )
    text = (
        "Ablation: hill-climb optimality gap (compress, n=8, m=4)\n"
        f"null spaces enumerated:  {result.spaces_evaluated}\n"
        f"start (modulo) estimate: {result.start_estimate}\n"
        f"hill-climb estimate:     {result.hill_climb_estimate}\n"
        f"global optimum estimate: {result.optimal_estimate}\n"
        f"gap: {result.gap_percent:.1f}% of removable weight"
    )
    publish(results_dir, "ablation_optimality_gap", text)
    assert result.optimal_estimate <= result.hill_climb_estimate


def test_restarts(benchmark, results_dir):
    trace = get_workload("mibench", "jpeg_dec", bench_scale()).data
    geometry = CacheGeometry.direct_mapped(1024)
    result = benchmark.pedantic(
        restarts_ablation,
        args=(trace, geometry),
        kwargs={"restarts": 6},
        rounds=1,
        iterations=1,
    )
    text = (
        "Ablation: hill-climb restarts (jpeg_dec, 1KB)\n"
        f"single-start estimate:  {result.single_start_estimate}\n"
        f"best of {result.restarts + 1} starts:     {result.restarts_estimate}\n"
        f"improvement:            {result.improvement_percent:.1f}%"
    )
    publish(results_dir, "ablation_restarts", text)
    assert result.restarts_estimate <= result.single_start_estimate

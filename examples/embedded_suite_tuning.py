#!/usr/bin/env python3
"""Tune an application-specific index function for every kernel of an
embedded suite, across the paper's three cache sizes.

This reproduces the Table 2 *workflow* on a selectable suite and prints
a compact report: per benchmark and cache size, the baseline
misses/K-uop and the percentage removed by a 2-input permutation-based
function — plus the chosen function so a designer can inspect which
address bits matter.

Run:  python examples/embedded_suite_tuning.py [mibench|powerstone]
"""

import sys

from repro import CacheGeometry, PAPER_HASHED_BITS, profile_trace
from repro.core.optimizer import optimize_for_trace
from repro.workloads import get_workload, workload_names

CACHE_SIZES = (1024, 4096, 16384)


def tune_suite(suite: str, scale: str = "tiny") -> None:
    print(f"suite: {suite} (scale={scale}); family: 2-input permutation-based")
    header = f"{'benchmark':<12}" + "".join(
        f"  {size // 1024}KB base  {size // 1024}KB rm%" for size in CACHE_SIZES
    )
    print(header)
    print("-" * len(header))
    interesting = {}
    for name in workload_names(suite):
        trace = get_workload(suite, name, scale).data
        cells = []
        for size in CACHE_SIZES:
            geometry = CacheGeometry.direct_mapped(size)
            profile = profile_trace(trace, geometry, PAPER_HASHED_BITS)
            result = optimize_for_trace(
                trace, geometry, family="2-in", profile=profile
            )
            cells.append(
                f"  {result.base_misses_per_kuop(trace.uops):8.1f}"
                f"  {result.removed_percent:7.1f}"
            )
            if result.removed_percent > 30:
                interesting[(name, size)] = result
        print(f"{name:<12}" + "".join(cells))

    print()
    print("functions behind the biggest wins:")
    for (name, size), result in sorted(
        interesting.items(), key=lambda kv: -kv[1].removed_percent
    )[:3]:
        print(f"\n{name} @ {size // 1024}KB "
              f"({result.removed_percent:.1f}% removed):")
        print(result.hash_function.describe())


if __name__ == "__main__":
    suite = sys.argv[1] if len(sys.argv) > 1 else "mibench"
    tune_suite(suite)

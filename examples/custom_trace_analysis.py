#!/usr/bin/env python3
"""Analyze and fix a user-provided address trace.

Shows the library as a downstream user would drive it on their own
workload rather than the bundled benchmarks:

1. build a trace (here: a synthetic DSP pipeline with three buffers at
   power-of-two strides — swap in ``repro.trace.load_trace`` for real
   dumps);
2. inspect the conflict profile: which XOR vectors (address-bit
   differences) cause the misses;
3. compare index-function families, the skewed-associative alternative
   and a fully-associative reference on exact simulations.

Run:  python examples/custom_trace_analysis.py
"""

import numpy as np

from repro import CacheGeometry, PAPER_HASHED_BITS, profile_trace
from repro.cache import (
    ModuloIndexing,
    XorIndexing,
    simulate,
    simulate_banks,
    simulate_capacity,
)
from repro.core.optimizer import optimize_for_trace
from repro.gf2 import XorHashFunction
from repro.trace import Trace, summarize


def build_dsp_trace() -> Trace:
    """input -> filter -> output, buffers 8 KB apart, processed in tiles.

    Each tile is visited twice (filter pass, then normalize pass), so
    the in/coef/out blocks of a tile are *reused* while still resident —
    and since the three buffers sit at 8 KB strides, the reuses conflict
    pairwise in a 4 KB direct-mapped cache.  This is a fixable conflict
    pattern, not a capacity problem.
    """
    base_in, base_coef, base_out = 0x40000, 0x42000, 0x44000
    refs = []
    for tile in range(32):
        for _pass in range(2):
            for i in range(64):
                offset = 4 * (tile * 64 + i) % 8192
                refs.append(base_in + offset)           # load sample
                refs.append(base_coef + 4 * (i % 512))  # load coefficient
                refs.append(base_out + offset)          # store result
    return Trace(np.array(refs, dtype=np.uint64), name="dsp-pipeline", uops=len(refs) * 3)


def main() -> None:
    trace = build_dsp_trace()
    geometry = CacheGeometry.direct_mapped(4096)
    print(summarize(trace).format())
    print(f"cache: {geometry}")
    print()

    # 2. What conflicts exist?  The profile's heavy vectors name the
    # address bits whose difference causes the ping-pong.
    profile = profile_trace(trace, geometry, PAPER_HASHED_BITS)
    print(f"profile: {profile.num_distinct_vectors} distinct conflict vectors, "
          f"total weight {profile.total_weight}")
    print("heaviest conflict vectors (block-address XOR, count):")
    for vector, count in profile.top_vectors(5):
        print(f"  {vector:#07x}  x{count}")
    print()

    # 3. Fix it, several ways.
    blocks = trace.block_addresses(geometry.block_size)
    base = simulate(blocks, geometry)
    print(f"{'configuration':<38}{'misses':>8}  {'removed':>8}")
    print("-" * 58)
    print(f"{'modulo (baseline)':<38}{base.misses:>8}  {'-':>8}")

    for family in ("1-in", "2-in", "general"):
        result = optimize_for_trace(
            trace, geometry, family=family, profile=profile
        )
        label = f"optimized {family}"
        print(f"{label:<38}{result.optimized.misses:>8}  "
              f"{result.removed_percent:>7.1f}%")

    # Skewed-associative cache (Seznec), same capacity: 2 banks of half
    # the sets each.
    half_m = geometry.index_bits - 1
    skew_fn = XorHashFunction.from_sigma(
        16, half_m, [half_m + (c % (16 - half_m)) for c in range(half_m)]
    )
    skewed = simulate_banks(
        blocks, [ModuloIndexing(half_m), XorIndexing(skew_fn)], seed=0
    )
    removed = skewed.removed_fraction(base)
    print(f"{'2-way skewed-associative (Seznec)':<38}{skewed.misses:>8}  {removed:>7.1f}%")

    fa = simulate_capacity(blocks, geometry.num_blocks)
    removed = fa.removed_fraction(base)
    print(f"{'fully associative LRU (reference)':<38}{fa.misses:>8}  {removed:>7.1f}%")


if __name__ == "__main__":
    main()

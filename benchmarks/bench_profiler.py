"""Vectorized vs per-access Fig. 1 profiling on a long mixed trace.

Two entry points:

* ``python benchmarks/bench_profiler.py`` — standalone: profiles a
  >= 1M-access synthetic trace (hot loop + conflicting streams +
  capacity-miss noise, the three regimes a real workload mixes) with
  the chunked vectorized kernel and with the retired per-access
  live-slot kernel, verifies the profiles are bit-identical, prints
  the timings and exits non-zero if the kernel is not >= the required
  speedup (default 10x).  A second section profiles the Table-2
  kernels fft, susan and lame (``small``; lame is the densest, with
  ~94 M pairs at 16 KB) at 1/4/16 KB, once in a single multi-capacity
  pass and once per capacity; it verifies the profiles agree, records
  each kernel's conflict pairs per second, and fails unless the single
  pass is no slower than the three separate ones together.  One more,
  untimed, multi-capacity pass per kernel runs under ``tracemalloc``
  and records its peak and the bytes its profiles keep.  Both
  sections go to ``BENCH_profiler.json``;
* ``pytest benchmarks/bench_profiler.py`` — pytest-benchmark variant
  on a reduced trace for trend tracking.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.profiling.conflict_profile import profile_blocks

# The oracles live in the test package, at the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles.profile import profile_blocks_slotted

PAPER_HASHED_BITS = 16
CAPACITY_BLOCKS = 256  # 8 KB cache of 32 B blocks, the paper's scale

#: The multi-capacity section: Table-2 kernels and cache sizes.
MULTI_KERNELS = ("fft", "susan", "lame")
MULTI_CACHE_BYTES = (1024, 4096, 16384)
MULTI_BLOCK_SIZE = 4


def build_trace(accesses: int, seed: int = 42) -> np.ndarray:
    """A mixed trace with the three profiling regimes.

    Roughly equal thirds: a small hot loop (conflict vectors from a
    live working set), interleaved strided streams (capacity misses
    with short slot lifetimes — the probing worst case), and random
    accesses over a footprint past the capacity (capacity misses with
    long slot lifetimes).
    """
    rng = np.random.default_rng(seed)
    third = accesses // 3
    hot_set = rng.permutation(np.arange(64, dtype=np.uint64))
    hot = np.tile(hot_set, third // len(hot_set) + 1)[:third]
    stream = np.concatenate(
        [k * 2048 + np.arange(180, dtype=np.uint64) for k in range(4)]
    )
    streams = np.tile(stream, third // len(stream) + 1)[:third]
    noise = rng.integers(
        0, 1 << 14, size=accesses - len(hot) - len(streams)
    ).astype(np.uint64)
    return np.concatenate([hot, streams, noise])


def run(accesses: int) -> dict:
    blocks = build_trace(accesses)
    t0 = time.perf_counter()
    fast = profile_blocks(blocks, CAPACITY_BLOCKS, PAPER_HASHED_BITS)
    fast_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = profile_blocks_slotted(blocks, CAPACITY_BLOCKS, PAPER_HASHED_BITS)
    slow_s = time.perf_counter() - t0

    assert (fast.counts == slow.counts).all(), "profiles diverge"
    assert fast.compulsory == slow.compulsory
    assert fast.capacity == slow.capacity
    assert fast.beyond_window == slow.beyond_window
    return {
        "accesses": len(blocks),
        "capacity_blocks": CAPACITY_BLOCKS,
        "n": PAPER_HASHED_BITS,
        "total_weight": fast.total_weight,
        "capacity_misses": fast.capacity,
        "vectorized_seconds": round(fast_s, 4),
        "per_access_seconds": round(slow_s, 4),
        "speedup": round(slow_s / fast_s, 2),
        "accesses_per_second_vectorized": round(len(blocks) / fast_s),
    }


def _best_of(repeats: int, fn):
    """(result, seconds) of the fastest of ``repeats`` calls."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        if best is None or seconds < best[1]:
            best = (result, seconds)
    return best


def _traced(fn):
    """(result, traced peak in MB, traced bytes the result keeps) of
    one call of ``fn`` under ``tracemalloc``."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20, retained


def run_multi(repeats: int = 2) -> dict:
    """One multi-capacity pass against one pass per capacity."""
    from repro.api import TraceSpec

    capacities = [size // MULTI_BLOCK_SIZE for size in MULTI_CACHE_BYTES]
    kernels = []
    for kernel in MULTI_KERNELS:
        blocks = TraceSpec("mibench", kernel).resolve().block_addresses(
            MULTI_BLOCK_SIZE
        )

        def separate():
            return [profile_blocks(blocks, c, PAPER_HASHED_BITS) for c in capacities]

        def one_pass():
            siblings = dict.fromkeys(capacities)
            profile_blocks(blocks, capacities[-1], PAPER_HASHED_BITS, siblings=siblings)
            return [siblings[c] for c in capacities]

        singles, singles_s = _best_of(repeats, separate)
        multi, multi_s = _best_of(repeats, one_pass)
        assert [p.digest for p in multi] == [p.digest for p in singles], (
            f"{kernel}: multi-capacity profiles diverge"
        )
        traced, peak_mb, retained = _traced(one_pass)
        assert [p.digest for p in traced] == [p.digest for p in multi]
        kernels.append(
            {
                "kernel": kernel,
                "accesses": len(blocks),
                "pairs_per_capacity": [p.total_weight for p in multi],
                "one_pass_seconds": round(multi_s, 4),
                # Pairs the one pass enumerates: the largest capacity's.
                "pairs_per_s": round(multi[-1].total_weight / multi_s),
                "single_passes_seconds": round(singles_s, 4),
                "tracemalloc_peak_mb": round(peak_mb, 2),
                # The profiles' support arrays and objects.
                "retained_bytes": retained,
            }
        )
    one = sum(k["one_pass_seconds"] for k in kernels)
    separate_total = sum(k["single_passes_seconds"] for k in kernels)
    return {
        "cache_bytes": list(MULTI_CACHE_BYTES),
        "block_size": MULTI_BLOCK_SIZE,
        "n": PAPER_HASHED_BITS,
        "kernels": kernels,
        "one_pass_seconds": round(one, 4),
        "single_passes_seconds": round(separate_total, 4),
        "speedup": round(separate_total / one, 2),
        "passed": one <= separate_total,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--accesses", type=int, default=1_200_000,
        help="trace length (the acceptance floor is measured at >= 1M)",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_profiler.json",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="required vectorized-over-per-access speedup",
    )
    args = parser.parse_args(argv)

    results = run(args.accesses)
    results["min_speedup_required"] = args.min_speedup
    results["passed"] = results["speedup"] >= args.min_speedup
    multi = results["multi_capacity"] = run_multi()

    print(f"Fig. 1 profiling, {results['accesses']} accesses "
          f"(capacity {CAPACITY_BLOCKS} blocks, n={PAPER_HASHED_BITS}):")
    print(f"  per-access kernel  {results['per_access_seconds']:8.2f}s")
    print(f"  vectorized kernel  {results['vectorized_seconds']:8.2f}s  "
          f"({results['accesses_per_second_vectorized']:,} accesses/s)")
    sizes = "/".join(f"{size // 1024}" for size in MULTI_CACHE_BYTES)
    print(f"{' + '.join(MULTI_KERNELS)} at {sizes} KB:")
    print(f"  one pass per capacity  {multi['single_passes_seconds']:8.2f}s")
    print(f"  one pass for all       {multi['one_pass_seconds']:8.2f}s  "
          f"({multi['speedup']:.2f}x)")
    for kernel in multi["kernels"]:
        print(f"    {kernel['kernel']:8s} one pass {kernel['one_pass_seconds']:6.2f}s  "
              f"({kernel['pairs_per_s'] / 1e6:.1f} M pairs/s, "
              f"peak {kernel['tracemalloc_peak_mb']:.1f} MB, "
              f"profiles {kernel['retained_bytes'] / 1024:.0f} KB)")
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    status = 0
    if not results["passed"]:
        print(
            f"FAIL: profiler speedup {results['speedup']:.1f}x "
            f"< {args.min_speedup:.0f}x",
            file=sys.stderr,
        )
        status = 1
    else:
        print(f"OK: profiler speedup {results['speedup']:.1f}x "
              f">= {args.min_speedup:.0f}x")
    if not multi["passed"]:
        print(
            "FAIL: the multi-capacity pass is slower than one pass per capacity",
            file=sys.stderr,
        )
        status = 1
    else:
        print("OK: the multi-capacity pass beats one pass per capacity")
    return status


# ---------------------------------------------------------------------------
# pytest-benchmark variant (reduced trace)
# ---------------------------------------------------------------------------


def test_vectorized_profiler(benchmark):
    blocks = build_trace(200_000)
    profile = benchmark(
        profile_blocks, blocks, CAPACITY_BLOCKS, PAPER_HASHED_BITS
    )
    slow = profile_blocks_slotted(blocks, CAPACITY_BLOCKS, PAPER_HASHED_BITS)
    assert (profile.counts == slow.counts).all()
    assert profile.capacity == slow.capacity


if __name__ == "__main__":
    raise SystemExit(main())

"""Out-of-core sharded profiling vs the in-memory single pass.

Two entry points:

* ``python benchmarks/bench_trace_scale.py`` — standalone: streams a
  multi-million-access synthetic trace to a raw ``.bin`` file in
  bounded memory (``BinTraceWriter``), memory-maps it back
  (``Trace.open_mmap``), profiles it with the sharded out-of-core
  driver (parallel over ``--workers``), captures the peak RSS *before*
  the in-memory baseline runs, then profiles the whole trace with the
  single-pass kernel and verifies the profiles are bit-identical.
  Also checks cache-backed resume (cold run computes every shard; with
  the merged profile deleted, the resumed run loads every shard and
  recomputes zero) and that the sharded phase stayed inside an
  RSS budget that scales with the shard size, not the trace.  Writes
  ``BENCH_trace_scale.json`` and exits non-zero if the multi-worker
  sharded pass is not >= the required speedup over the same sharded
  pass run serially (the gate auto-skips — recorded in the JSON — on
  single-core hosts, where "parallel" cannot mean anything) or if the
  *serial* sharded pass exceeds the always-on overhead ceiling over
  the in-memory single pass (sharding must stay cheap even where the
  parallel gate cannot run);
* ``pytest benchmarks/bench_trace_scale.py`` — pytest-benchmark
  variant on a reduced trace for trend tracking.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.pipeline.context import PipelineContext
from repro.profiling.conflict_profile import profile_blocks
from repro.profiling.sharded import run_sharded_profile
from repro.trace import BinTraceWriter, Trace

PAPER_HASHED_BITS = 16
BLOCK_SIZE = 32

#: Distinct blocks the generator touches — the live-block state the
#: sharded driver carries across boundaries is bounded by this, so it
#: enters the RSS budget explicitly.
WORKING_SET_BLOCKS = 1 << 18

#: Accesses appended per generator step; keeps generation itself
#: out-of-core (the writer never sees more than one chunk).
GEN_CHUNK = 1 << 20


def write_trace(path: str | Path, accesses: int, seed: int = 42) -> "Trace":
    """Stream a mixed-regime trace to ``path`` in bounded memory.

    Per chunk, roughly equal thirds: a hot loop over a few sets
    (conflict vectors), strided streams sweeping the working set
    (capacity misses), and random touches over the whole working set
    (cold misses early, capacity churn later).  The working set is
    bounded so live-block state — inherent to any exact profiler —
    stays O(``WORKING_SET_BLOCKS``), independent of trace length.
    """
    rng = np.random.default_rng(seed)
    shift = np.uint64(int(BLOCK_SIZE).bit_length() - 1)
    with BinTraceWriter(path, name=f"scale-{accesses}", kind="data") as writer:
        written = 0
        sweep = 0
        while written < accesses:
            size = min(GEN_CHUNK, accesses - written)
            third = size // 3
            hot = rng.integers(0, 4096, size=third, dtype=np.uint64)
            base = (sweep * 7919) % WORKING_SET_BLOCKS
            stream = (base + 17 * np.arange(third, dtype=np.uint64)) % WORKING_SET_BLOCKS
            noise = rng.integers(
                0, WORKING_SET_BLOCKS, size=size - 2 * third, dtype=np.uint64
            )
            blocks = np.concatenate([hot, stream, noise])
            rng.shuffle(blocks)
            writer.append(blocks << shift)
            written += size
            sweep += 1
        return writer.close(uops=accesses)


def peak_rss_mb() -> float:
    """Peak RSS so far, in MB, over this process and reaped children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def assert_profiles_equal(a, b) -> None:
    assert a.n == b.n and a.accesses == b.accesses
    assert a.compulsory == b.compulsory and a.capacity == b.capacity
    assert a.beyond_window == b.beyond_window
    assert (a.counts == b.counts).all(), "conflict histograms differ"


def run(
    accesses: int,
    shard_size: int,
    workers: int,
    cache_kb: int = 8,
    n: int = PAPER_HASHED_BITS,
    rss_budget_mb: float | None = None,
) -> dict:
    geometry = CacheGeometry(cache_kb * 1024, block_size=BLOCK_SIZE)
    with tempfile.TemporaryDirectory(prefix="repro-trace-scale-") as tmp:
        bin_path = Path(tmp) / "trace.bin"
        t0 = time.perf_counter()
        trace = write_trace(bin_path, accesses)
        gen_s = time.perf_counter() - t0
        file_mb = bin_path.stat().st_size / 1e6

        # -- sharded out-of-core pass (timed without a cache, so the
        # gate measures profiling throughput, not npz compression) ----
        t0 = time.perf_counter()
        sharded = run_sharded_profile(
            trace, geometry, n, shard_size=shard_size, workers=workers
        )
        sharded_s = time.perf_counter() - t0
        if workers > 1:
            t0 = time.perf_counter()
            serial = run_sharded_profile(
                trace, geometry, n, shard_size=shard_size, workers=1
            )
            serial_s = time.perf_counter() - t0
            assert_profiles_equal(serial.profile, sharded.profile)
        else:
            serial_s = sharded_s
        # Captured before the single pass materializes the whole trace:
        # at this point the high-water mark belongs to the sharded runs.
        rss_mb = peak_rss_mb()

        # -- in-memory single-pass baseline ---------------------------
        t0 = time.perf_counter()
        blocks = trace.block_addresses(geometry.block_size)
        single = profile_blocks(blocks, geometry.num_sets, n)
        single_s = time.perf_counter() - t0
        del blocks

        assert_profiles_equal(sharded.profile, single)

        # -- cache-backed resume: cold computes every shard; with the
        # merged profile deleted (a run that crashed before the merge
        # was stored), the resumed run loads every shard --------------
        cache_dir = Path(tmp) / "cache"
        cold = run_sharded_profile(
            trace, geometry, n, shard_size=shard_size, workers=workers,
            context=PipelineContext(cache_dir, storage="local"),
        )
        for path in (cache_dir / "profile").rglob("*.npz"):
            path.unlink()
        t0 = time.perf_counter()
        warm = run_sharded_profile(
            trace, geometry, n, shard_size=shard_size, workers=workers,
            context=PipelineContext(cache_dir, storage="local"),
        )
        warm_s = time.perf_counter() - t0
        assert cold.recomputed_shards == len(cold.plan), (
            f"cold run found shards already cached: {cold.recomputed_shards}"
        )
        assert warm.recomputed_shards == 0, (
            f"warm replay recomputed {warm.recomputed_shards} shard(s)"
        )
        assert warm.cached_shards == len(warm.plan), (
            f"warm replay loaded {warm.cached_shards} of {len(warm.plan)} shard(s)"
        )
        assert warm.recomputed_scans == 0
        assert_profiles_equal(warm.profile, single)

    shard_mb = shard_size * 8 / 1e6
    state_mb = WORKING_SET_BLOCKS * 8 * len(sharded.plan) / 1e6
    if rss_budget_mb is None:
        # Interpreter + numpy baseline, a dozen shard-sized scratch
        # arrays, and the carried live-block state; crucially NOT a
        # function of the trace length.
        rss_budget_mb = 512.0 + 12.0 * shard_mb + 2.0 * state_mb
    rss_ok = rss_mb <= rss_budget_mb

    speedup = serial_s / sharded_s if sharded_s else float("inf")
    return {
        "accesses": accesses,
        "file_mb": round(file_mb, 1),
        "shard_size": shard_size,
        "shards": len(sharded.plan),
        "workers": sharded.workers,
        "cpu_count": os.cpu_count(),
        "generate_seconds": round(gen_s, 4),
        "sharded_seconds": round(sharded_s, 4),
        "sharded_serial_seconds": round(serial_s, 4),
        "single_pass_seconds": round(single_s, 4),
        "warm_replay_seconds": round(warm_s, 4),
        "speedup": round(speedup, 2),
        "speedup_vs_single_pass": round(
            single_s / sharded_s if sharded_s else float("inf"), 2
        ),
        "throughput_maccess_per_s": round(accesses / sharded_s / 1e6, 2),
        "peak_rss_mb": round(rss_mb, 1),
        "rss_budget_mb": round(rss_budget_mb, 1),
        "rss_ok": rss_ok,
        "cold_recomputed_shards": cold.recomputed_shards,
        "warm_recomputed_shards": warm.recomputed_shards,
        "warm_cached_shards": warm.cached_shards,
        "bit_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--accesses", type=int, default=4_000_000,
        help="trace length (the acceptance run uses >= 100M)",
    )
    parser.add_argument(
        "--shard-size", type=int, default=500_000,
        help="accesses per shard",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the sharded pass (default: one per core)",
    )
    parser.add_argument("--cache-kb", type=int, default=8)
    parser.add_argument("--n", type=int, default=PAPER_HASHED_BITS)
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="required multi-worker over serial sharded speedup "
             "(auto-skipped on single-core hosts)",
    )
    parser.add_argument(
        "--max-serial-overhead", type=float, default=1.35,
        help="ceiling on sharded-serial time over the in-memory single "
             "pass; always enforced (shard orchestration must stay "
             "cheap even where the parallel gate cannot run)",
    )
    parser.add_argument(
        "--rss-budget-mb", type=float, default=None,
        help="override the computed peak-RSS budget",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_trace_scale.json",
    )
    args = parser.parse_args(argv)

    workers = args.workers if args.workers is not None else os.cpu_count() or 1
    results = run(
        args.accesses, args.shard_size, workers,
        cache_kb=args.cache_kb, n=args.n, rss_budget_mb=args.rss_budget_mb,
    )
    multi_core = (os.cpu_count() or 1) >= 2 and results["workers"] >= 2
    results["min_speedup_required"] = args.min_speedup
    results["speedup_gate_skipped"] = not multi_core
    speedup_ok = not multi_core or results["speedup"] >= args.min_speedup
    # Serial-overhead floor: unlike the parallel gate this one never
    # skips — sharding must not tax a host that cannot parallelize.
    serial_overhead = (
        results["sharded_serial_seconds"] / results["single_pass_seconds"]
        if results["single_pass_seconds"]
        else 0.0
    )
    results["serial_overhead"] = round(serial_overhead, 2)
    results["max_serial_overhead"] = args.max_serial_overhead
    serial_ok = serial_overhead <= args.max_serial_overhead
    results["serial_overhead_ok"] = serial_ok
    results["passed"] = bool(results["rss_ok"] and speedup_ok and serial_ok)

    print(
        f"trace scale ({results['accesses']} accesses, {results['file_mb']}MB "
        f"file, {results['shards']} shard(s) x {results['shard_size']}, "
        f"{results['workers']} worker(s)):"
    )
    print(f"  generate       {results['generate_seconds']:8.2f}s")
    print(f"  sharded        {results['sharded_seconds']:8.2f}s  "
          f"({results['throughput_maccess_per_s']} Maccess/s)")
    print(f"  sharded (w=1)  {results['sharded_serial_seconds']:8.2f}s  "
          f"({results['serial_overhead']:.2f}x single pass, "
          f"ceiling {args.max_serial_overhead:.2f}x)")
    print(f"  single pass    {results['single_pass_seconds']:8.2f}s")
    print(f"  warm replay    {results['warm_replay_seconds']:8.2f}s  "
          f"({results['warm_recomputed_shards']} shard(s) recomputed, "
          f"{results['warm_cached_shards']} loaded)")
    print(f"  peak RSS       {results['peak_rss_mb']:8.1f}MB  "
          f"(budget {results['rss_budget_mb']}MB)")
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not results["rss_ok"]:
        print(
            f"FAIL: peak RSS {results['peak_rss_mb']}MB exceeded the "
            f"{results['rss_budget_mb']}MB budget",
            file=sys.stderr,
        )
        return 1
    if not serial_ok:
        print(
            f"FAIL: serial sharded pass took {serial_overhead:.2f}x the "
            f"single pass (ceiling {args.max_serial_overhead:.2f}x)",
            file=sys.stderr,
        )
        return 1
    if results["speedup_gate_skipped"]:
        print(
            f"SKIP: speedup gate needs >= 2 cores and >= 2 workers "
            f"(cpu_count={results['cpu_count']}, "
            f"workers={results['workers']}); measured "
            f"{results['speedup']:.1f}x"
        )
        return 0
    if not speedup_ok:
        print(
            f"FAIL: multi-worker sharded speedup {results['speedup']:.1f}x "
            f"< {args.min_speedup:.1f}x over the serial sharded pass",
            file=sys.stderr,
        )
        return 1
    print(f"OK: multi-worker sharded speedup {results['speedup']:.1f}x "
          f">= {args.min_speedup:.1f}x, RSS within budget")
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark variant (reduced trace)
# ---------------------------------------------------------------------------


def test_sharded_profile_scale(benchmark):
    geometry = CacheGeometry(8 * 1024, block_size=BLOCK_SIZE)
    with tempfile.TemporaryDirectory(prefix="repro-trace-scale-") as tmp:
        bin_path = Path(tmp) / "trace.bin"
        trace = write_trace(bin_path, 400_000)
        sharded = benchmark.pedantic(
            run_sharded_profile,
            args=(trace, geometry, PAPER_HASHED_BITS),
            kwargs={"shard_size": 100_000, "workers": 1},
            rounds=1,
            iterations=1,
        )
        blocks = trace.block_addresses(geometry.block_size)
        single = profile_blocks(blocks, geometry.num_sets, PAPER_HASHED_BITS)
    assert_profiles_equal(sharded.profile, single)
    benchmark.extra_info["shards"] = len(sharded.plan)


if __name__ == "__main__":
    raise SystemExit(main())

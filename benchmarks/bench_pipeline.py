"""Cold vs warm-cache campaign replay of the Table 2 grid.

Two entry points:

* ``python benchmarks/bench_pipeline.py`` — standalone: runs the
  data-cache Table 2 grid twice through one artifact cache (cold, then
  warm), verifies the warm replay recomputed nothing and produced
  identical rows, prints the timings, writes ``BENCH_pipeline.json``
  and exits non-zero if the warm replay is not >= 5x faster;
* ``pytest benchmarks/bench_pipeline.py`` — pytest-benchmark variant
  on a reduced grid for trend tracking.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.api import expand_grid
from repro.pipeline import run_campaign


def _rows_key(result):
    return [
        (r.spec, r.base_misses, r.optimized_misses, r.removed_percent)
        for r in result.rows
    ]


def run(
    scale: str,
    workers: int,
    benchmarks: tuple[str, ...] | None = None,
    cache_sizes: tuple[int, ...] = (1024, 4096, 16384),
    families: tuple[str, ...] = ("2-in", "4-in", "16-in"),
) -> dict:
    specs = expand_grid(
        {
            "suite": "mibench",
            "benchmarks": benchmarks,
            "kinds": ["data"],
            "cache_bytes": cache_sizes,
            "families": families,
            "scale": scale,
        }
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        t0 = time.perf_counter()
        cold = run_campaign(specs, cache_dir=cache_dir, workers=workers)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_campaign(specs, cache_dir=cache_dir, workers=workers)
        warm_s = time.perf_counter() - t0

    assert _rows_key(warm) == _rows_key(cold), "warm replay changed results"
    assert warm.fully_cached, f"warm replay recomputed artifacts: {warm.cache_totals()}"
    return {
        "tasks": len(specs),
        "scale": scale,
        "workers": cold.workers,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2),
        "cold_cache": cold.cache_totals(),
        "warm_cache": warm.cache_totals(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="campaign worker processes (1 = serial, the timing baseline)",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_pipeline.json",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="required warm-over-cold campaign speedup",
    )
    args = parser.parse_args(argv)

    results = run(args.scale, args.workers)
    results["min_speedup_required"] = args.min_speedup
    results["passed"] = results["speedup"] >= args.min_speedup

    print(
        f"table-2 grid ({results['tasks']} tasks, scale={args.scale}, "
        f"{results['workers']} worker(s)):"
    )
    print(f"  cold  {results['cold_seconds']:8.2f}s  {results['cold_cache']}")
    print(f"  warm  {results['warm_seconds']:8.2f}s  {results['warm_cache']}")
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not results["passed"]:
        print(
            f"FAIL: warm-cache replay speedup {results['speedup']:.1f}x "
            f"< {args.min_speedup:.0f}x",
            file=sys.stderr,
        )
        return 1
    print(f"OK: warm-cache replay speedup {results['speedup']:.1f}x "
          f">= {args.min_speedup:.0f}x")
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark variant (reduced grid)
# ---------------------------------------------------------------------------


def test_warm_campaign_replay(benchmark):
    specs = expand_grid(
        {
            "suite": "mibench",
            "benchmarks": ["fft", "rijndael"],
            "cache_bytes": [1024, 4096],
            "families": ["2-in", "4-in"],
            "scale": "tiny",
        }
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        t0 = time.perf_counter()
        cold = run_campaign(specs, cache_dir=cache_dir, workers=1)
        cold_s = time.perf_counter() - t0
        warm = benchmark.pedantic(
            run_campaign,
            args=(specs,),
            kwargs={"cache_dir": cache_dir, "workers": 1},
            rounds=1,
            iterations=1,
        )
    assert warm.fully_cached
    assert _rows_key(warm) == _rows_key(cold)
    benchmark.extra_info["cold_seconds"] = cold_s


if __name__ == "__main__":
    raise SystemExit(main())

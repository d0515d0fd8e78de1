"""Engine vs reference-simulator throughput (accesses/sec).

Two entry points:

* ``python benchmarks/bench_engine.py`` — standalone: times every
  organization, prints a table, writes ``BENCH_engine.json`` and exits
  non-zero if any engine case fails its per-case speedup floor over
  the scalar reference loop (see :data:`FLOORS`); the floors are
  measured on the ``numpy`` backend so the gate is deterministic
  regardless of what accelerators the host has installed;
* ``pytest benchmarks/bench_engine.py`` — pytest-benchmark variant for
  trend tracking alongside the other bench modules.

Every case asserts the engine's stats equal the scalar oracle's on
the full trace, and that same full scalar replay provides the
reference timing — identical work on both sides.  A case's speedup is
the median of :data:`PAIRS` alternating engine/reference timing pairs,
so one pair slowed by other load on a shared host cannot decide a floor.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.backend import use_backend
from repro.cache.engine import simulate, simulate_banks, simulate_capacity
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import ModuloIndexing, XorIndexing
from repro.gf2.hashfn import XorHashFunction

# The oracles live in the test package, at the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles.cache import (
    simulate_direct_mapped_scalar,
    simulate_fully_associative_scalar,
    simulate_set_associative_scalar,
    simulate_skewed_scalar,
)

M = 10  # 4 KB direct-mapped, 4-byte blocks

#: Required engine-over-scalar speedup per case, gated on the ``numpy``
#: backend.  The direct-mapped floor can be overridden from the command
#: line (``--min-speedup``); the associative floors are fixed — they are
#: the acceptance bar for the vectorized LRU/skewed kernels.
FLOORS = {
    "direct_mapped_xor": 10.0,
    "two_way_lru_xor": 5.0,
    "fully_associative": 3.0,
    "skewed_two_bank": 5.0,
}

#: Timing pairs per case (odd, so the median is one pair).  A pair is the
#: engine's best of 3 followed by one reference replay.
PAIRS = 5


def make_blocks(refs: int, seed: int = 42) -> np.ndarray:
    """Loop + random mix resembling the paper's kernel traces."""
    rng = np.random.default_rng(seed)
    loops = np.tile(np.arange(400, dtype=np.uint64), max(1, refs // (2 * 400)))
    noise = rng.integers(0, 1 << 14, size=refs - len(loops)).astype(np.uint64)
    return np.concatenate([loops, noise])


def make_hash(m: int = M) -> XorHashFunction:
    return XorHashFunction.random(16, m, np.random.default_rng(7))


def _rate(fn, *args, repeats: int = 3) -> tuple[float, object]:
    """Best-of-``repeats`` throughput in accesses/sec."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return len(args[0]) / best, result


def run(refs: int) -> dict:
    blocks = make_blocks(refs)
    xor = XorIndexing(make_hash())
    geometry = CacheGeometry.direct_mapped((1 << M) * 4)
    two_way = CacheGeometry((1 << M) * 4, block_size=4, associativity=2)
    xor_two_way = XorIndexing(make_hash(two_way.index_bits))
    banks = [ModuloIndexing(M - 1), XorIndexing(make_hash(M - 1))]
    results: dict = {"accesses": refs, "cases": {}}

    # (name, engine call and its arguments, scalar oracle and its arguments)
    cases = [
        ("direct_mapped_xor", simulate, (geometry, xor),
         simulate_direct_mapped_scalar, (xor,)),
        ("direct_mapped_modulo", simulate, (geometry, ModuloIndexing(M)),
         simulate_direct_mapped_scalar, (ModuloIndexing(M),)),
        ("two_way_lru_xor", simulate, (two_way, xor_two_way),
         simulate_set_associative_scalar, (two_way, xor_two_way)),
        ("fully_associative", simulate_capacity, (1 << M,),
         simulate_fully_associative_scalar, (1 << M,)),
        ("skewed_two_bank", simulate_banks, (banks, 0),
         simulate_skewed_scalar, (banks, 0)),
    ]
    for name, engine_fn, engine_args, scalar_fn, scalar_args in cases:
        pairs = []
        for _ in range(PAIRS):
            with use_backend("numpy"):
                rate, stats = _rate(engine_fn, blocks, *engine_args)
            scalar_rate, scalar_stats = _rate(scalar_fn, blocks, *scalar_args, repeats=1)
            assert stats == scalar_stats, f"{name}: engine != reference"
            pairs.append((rate / scalar_rate, rate, scalar_rate))
        speedup, rate, scalar_rate = sorted(pairs)[PAIRS // 2]
        results["cases"][name] = {
            "engine_accesses_per_sec": round(rate),
            "reference_accesses_per_sec": round(scalar_rate),
            "speedup": round(speedup, 2),
            "pair_speedups": [round(pair[0], 2) for pair in pairs],
        }
        if name in FLOORS:
            results["cases"][name]["floor"] = FLOORS[name]
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--refs", type=int, default=500_000)
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    )
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="required direct-mapped engine speedup over the scalar loop",
    )
    args = parser.parse_args(argv)
    results = run(args.refs)

    width = max(len(name) for name in results["cases"])
    for name, case in results["cases"].items():
        print(
            f"{name.rjust(width)}  engine {case['engine_accesses_per_sec']/1e6:8.2f} M/s"
            f"  reference {case['reference_accesses_per_sec']/1e6:8.3f} M/s"
            f"  speedup {case['speedup']:8.1f}x"
        )
    floors = dict(FLOORS, direct_mapped_xor=args.min_speedup)
    failures = []
    for name, floor in floors.items():
        speedup = results["cases"][name]["speedup"]
        if speedup < floor:
            failures.append(f"{name}: {speedup:.2f}x < {floor:.0f}x floor")
    dm = results["cases"]["direct_mapped_xor"]["speedup"]
    results["direct_mapped_speedup"] = dm
    results["min_speedup_required"] = args.min_speedup
    results["floors"] = floors
    results["passed"] = not failures
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    for name, floor in floors.items():
        speedup = results["cases"][name]["speedup"]
        print(f"OK: {name} {speedup:.1f}x >= {floor:.0f}x floor")
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark variant
# ---------------------------------------------------------------------------


def test_engine_direct_mapped_throughput(benchmark):
    blocks = make_blocks(200_000)
    geometry = CacheGeometry.direct_mapped((1 << M) * 4)
    xor = XorIndexing(make_hash())
    stats = benchmark(simulate, blocks, geometry, xor)
    assert stats.accesses == len(blocks)


def test_engine_beats_reference_10x(benchmark):
    blocks = make_blocks(200_000)
    geometry = CacheGeometry.direct_mapped((1 << M) * 4)
    xor = XorIndexing(make_hash())
    engine_rate, stats = _rate(simulate, blocks, geometry, xor)
    scalar_rate, _ = _rate(simulate_direct_mapped_scalar, blocks[:20_000], xor, repeats=1)
    benchmark.extra_info["speedup"] = engine_rate / scalar_rate
    benchmark(simulate, blocks, geometry, xor)
    assert engine_rate >= 10 * scalar_rate
    assert stats == simulate_direct_mapped_scalar(blocks, xor)


if __name__ == "__main__":
    raise SystemExit(main())

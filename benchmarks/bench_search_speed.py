"""Batched vs scalar hill climbing, and the paper's Sec. 3.2 runtime claim.

Two entry points:

* ``python benchmarks/bench_search_speed.py`` — standalone: profiles a
  >= 1M-access mixed synthetic trace (hot loop + conflicting streams +
  wide-footprint noise, giving a production-scale profile support),
  runs the batched hill climber and the frozen per-column
  ``hill_climb_scalar`` oracle of ``tests/oracles/search.py`` (its own
  scalar Eq. 4 cost, no shared estimator) on the same profile,
  verifies they are bit-identical (same function, history, steps,
  evaluations), prints the timings, writes ``BENCH_search.json`` and
  exits non-zero if the batched kernel is not >= the required speedup
  on the gated configuration (the 16-in family at n = 16).  A second,
  always-on section certifies the global optimum of the 1 KB
  bit-selection space by branch-and-bound (gated: certified, gap 0,
  and under 10% of the unpruned assignment tree expanded), reports
  every zoo strategy's measured optimality gap against it, and races
  the portfolio (gated: matches the zoo best at <= 1.5x the
  steepest-descent evaluation count);
* ``pytest benchmarks/bench_search_speed.py`` — pytest-benchmark
  variant per family and cache size on a real workload for trend
  tracking ("0.5 to 10 seconds on a 2 GHz Pentium 4" is the paper's
  budget).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cache.geometry import CacheGeometry, PAPER_HASHED_BITS
from repro.profiling.conflict_profile import profile_blocks, profile_trace
from repro.search.families import family_for_name
from repro.search.strategies import strategy_for_name
from repro.workloads.registry import get_workload

# The oracles live in the test package, at the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles.search import hill_climb_scalar

#: The acceptance configuration: the 16-in family (unrestricted
#: permutation functions, the widest per-column neighbourhood) on the
#: paper's 16-bit hashed window at a 4 KB cache.
GATED_FAMILY = "16-in"
GATED_CACHE_BYTES = 4096

#: The certified-optimum configuration: bit-selection at the paper's
#: 1 KB geometry, where branch-and-bound closes the gap outright and
#: the result can be cross-checked against the independent optimal
#: bit-select search of ``repro.search.exhaustive``.
CERTIFIED_FAMILY = "1-in"
CERTIFIED_CACHE_BYTES = 1024
CERTIFIED_ACCESSES = 300_000

#: Strategies raced against the certified optimum (the full zoo).
ZOO_STRATEGIES = ("steepest", "first-improvement", "beam:4", "anneal")


def build_trace(accesses: int, seed: int = 42) -> np.ndarray:
    """A mixed trace whose profile support fills the 16-bit window.

    Roughly equal thirds: a small hot loop (dense conflict vectors),
    interleaved strided streams (structured conflicts), and random
    accesses over the full 2^16-block footprint (the wide support that
    a production-size workload exhibits — the regime the batched
    kernel is built for).
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
        0, 1 << PAPER_HASHED_BITS, size=accesses - len(hot) - len(streams)
    ).astype(np.uint64)
    return np.concatenate([hot, streams, noise])


def _time_best_of(fns, repeats: int) -> list[tuple[float, object]]:
    """Best-of-``repeats`` seconds and the result of each of ``fns``.

    The functions take turns within every repeat, so a slow stretch of
    a shared host falls on all of them rather than on one side of a
    ratio.
    """
    best, results = [float("inf")] * len(fns), [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(best, results))


def run(accesses: int, repeats: int, families, cache_bytes: int) -> dict:
    blocks = build_trace(accesses)
    geometry = CacheGeometry.direct_mapped(cache_bytes)
    profile = profile_blocks(blocks, geometry.num_blocks, PAPER_HASHED_BITS)
    steepest = strategy_for_name("steepest")
    rows = []
    for family_name in families:
        family = family_for_name(
            family_name, PAPER_HASHED_BITS, geometry.index_bits
        )
        (batched_s, batched), (scalar_s, scalar) = _time_best_of(
            [
                lambda: steepest.search(profile, family),
                lambda: hill_climb_scalar(profile, family),
            ],
            repeats,
        )
        assert batched.function == scalar.function, family_name
        assert batched.history == scalar.history, family_name
        assert batched.steps == scalar.steps, family_name
        assert batched.evaluations == scalar.evaluations, family_name
        rows.append({
            "family": family_name,  # the paper's label, e.g. '16-in'
            "steps": batched.steps,
            "evaluations": batched.evaluations,
            "batched_seconds": round(batched_s, 5),
            "scalar_seconds": round(scalar_s, 5),
            "speedup": round(scalar_s / batched_s, 2),
        })
    return {
        "accesses": len(blocks),
        "support": profile.num_distinct_vectors,
        "cache_bytes": cache_bytes,
        "n": PAPER_HASHED_BITS,
        "repeats": repeats,
        "gated_family": GATED_FAMILY,
        "rows": rows,
    }


def run_optimality(
    accesses: int, max_node_fraction: float, portfolio_eval_factor: float
) -> dict:
    """Certified optimum vs the strategy zoo at the 1 KB geometry.

    Branch-and-bound certifies the global optimum of the
    ``CERTIFIED_FAMILY`` column space; every zoo strategy then reports
    its *measured* optimality gap against that number instead of
    against an unprovable heuristic reference.  The portfolio races the
    first two zoo members in lockstep and is gated on matching the
    whole zoo at <= ``portfolio_eval_factor`` x the steepest-descent
    evaluation count.
    """
    from repro.search.branch_bound import branch_bound_search, exhaustive_node_count
    from repro.search.exhaustive import optimal_bit_select

    blocks = build_trace(accesses)
    geometry = CacheGeometry.direct_mapped(CERTIFIED_CACHE_BYTES)
    profile = profile_blocks(blocks, geometry.num_blocks, PAPER_HASHED_BITS)
    family = family_for_name(
        CERTIFIED_FAMILY, PAPER_HASHED_BITS, geometry.index_bits
    )

    t0 = time.perf_counter()
    exact = branch_bound_search(profile, family)
    exact_seconds = time.perf_counter() - t0
    exhaustive = exhaustive_node_count(family)
    fraction = exact.nodes_expanded / exhaustive
    # Independent oracle: Table 3's optimal bit-select search must agree.
    cross_check = optimal_bit_select(
        PAPER_HASHED_BITS, geometry.index_bits, profile=profile, mode="estimate"
    ).misses

    strategies = []
    steepest_evaluations = None
    for spec in ZOO_STRATEGIES:
        strategy = strategy_for_name(spec)
        result = strategy.search(profile, family, rng=np.random.default_rng(0))
        if spec == "steepest":
            steepest_evaluations = result.evaluations
        strategies.append({
            "strategy": spec,
            "estimated_misses": result.estimated_misses,
            "optimality_gap": result.estimated_misses - exact.estimated_misses,
            "evaluations": result.evaluations,
        })

    portfolio = strategy_for_name("portfolio").search(
        profile, family, rng=np.random.default_rng(0)
    )
    zoo_best = min(row["estimated_misses"] for row in strategies)
    evaluation_budget = portfolio_eval_factor * steepest_evaluations
    portfolio_row = {
        "strategy": portfolio.strategy_name,
        "estimated_misses": portfolio.estimated_misses,
        "optimality_gap": portfolio.estimated_misses - exact.estimated_misses,
        "evaluations": portfolio.evaluations,
        "evaluation_budget": evaluation_budget,
    }

    certified_ok = (
        exact.certified
        and exact.optimality_gap == 0
        and exact.estimated_misses == cross_check
        and fraction < max_node_fraction
    )
    portfolio_ok = (
        portfolio.estimated_misses <= zoo_best
        and portfolio.evaluations <= evaluation_budget
    )
    return {
        "accesses": len(blocks),
        "cache_bytes": CERTIFIED_CACHE_BYTES,
        "family": CERTIFIED_FAMILY,
        "certified_misses": exact.estimated_misses,
        "certified": exact.certified,
        "optimality_gap": exact.optimality_gap,
        "nodes_expanded": exact.nodes_expanded,
        "nodes_pruned": exact.nodes_pruned,
        "exhaustive_nodes": exhaustive,
        "expanded_fraction": fraction,
        "max_node_fraction": max_node_fraction,
        "cross_check_misses": cross_check,
        "seconds": round(exact_seconds, 3),
        "strategies": strategies,
        "portfolio": portfolio_row,
        "zoo_best_misses": zoo_best,
        "portfolio_eval_factor": portfolio_eval_factor,
        "certified_ok": certified_ok,
        "portfolio_ok": portfolio_ok,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--accesses", type=int, default=1_200_000,
        help="trace length (the acceptance floor is measured at >= 1M)",
    )
    parser.add_argument(
        "--repeats", type=int, default=10,
        help="best-of-N timing repeats, batched and scalar taking turns "
             "(3 separate repeats let host noise alone fail the 16-in "
             "gate on a shared 2-core host)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=GATED_CACHE_BYTES,
    )
    parser.add_argument(
        "--families", nargs="*",
        default=["1-in", "2-in", "4-in", "16-in", "general"],
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_search.json",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=4.0,
        help="required batched-over-scalar speedup on the 16-in family",
    )
    parser.add_argument(
        "--certified-accesses", type=int, default=CERTIFIED_ACCESSES,
        help="trace length for the certified-optimum section",
    )
    parser.add_argument(
        "--max-node-fraction", type=float, default=0.10,
        help="branch-and-bound must expand under this fraction of the "
             "unpruned assignment tree",
    )
    parser.add_argument(
        "--portfolio-eval-factor", type=float, default=1.5,
        help="portfolio evaluation budget as a multiple of steepest descent",
    )
    args = parser.parse_args(argv)

    families = list(args.families)
    if GATED_FAMILY not in families:
        families.append(GATED_FAMILY)
    results = run(args.accesses, args.repeats, families, args.cache_bytes)
    gated = next(r for r in results["rows"] if r["family"] == GATED_FAMILY)
    results["min_speedup_required"] = args.min_speedup
    results["gated_speedup"] = gated["speedup"]
    optimality = run_optimality(
        args.certified_accesses, args.max_node_fraction,
        args.portfolio_eval_factor,
    )
    results["optimality"] = optimality
    results["passed"] = (
        gated["speedup"] >= args.min_speedup
        and optimality["certified_ok"]
        and optimality["portfolio_ok"]
    )

    print(f"Hill-climb search, {results['accesses']} accesses "
          f"(support {results['support']}) @ "
          f"{args.cache_bytes}B direct-mapped, n={PAPER_HASHED_BITS}:")
    for row in results["rows"]:
        print(f"  {row['family']:>8}: scalar {row['scalar_seconds']:8.3f}s  "
              f"batched {row['batched_seconds']:8.3f}s  "
              f"({row['speedup']:.1f}x, {row['steps']} steps, "
              f"{row['evaluations']} evals)")
    print(f"Certified optimum, {optimality['accesses']} accesses @ "
          f"{optimality['cache_bytes']}B, family {optimality['family']}:")
    print(f"  branch-bound: {optimality['certified_misses']} misses "
          f"(certified={optimality['certified']}, "
          f"cross-check {optimality['cross_check_misses']}), "
          f"{optimality['nodes_expanded']} of {optimality['exhaustive_nodes']} "
          f"nodes ({optimality['expanded_fraction']:.2e}), "
          f"{optimality['seconds']:.1f}s")
    for row in optimality["strategies"]:
        print(f"  {row['strategy']:>17}: {row['estimated_misses']} misses "
              f"(gap {row['optimality_gap']}, {row['evaluations']} evals)")
    pf = optimality["portfolio"]
    print(f"  portfolio: {pf['estimated_misses']} misses "
          f"(gap {pf['optimality_gap']}), {pf['evaluations']} evals "
          f"(budget {pf['evaluation_budget']:.0f})")

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    failed = False
    if gated["speedup"] < args.min_speedup:
        print(
            f"FAIL: {GATED_FAMILY} search speedup {gated['speedup']:.1f}x "
            f"< {args.min_speedup:.0f}x",
            file=sys.stderr,
        )
        failed = True
    if not optimality["certified_ok"]:
        print(
            f"FAIL: branch-and-bound did not certify the "
            f"{CERTIFIED_FAMILY} optimum within "
            f"{args.max_node_fraction:.0%} of the unpruned tree",
            file=sys.stderr,
        )
        failed = True
    if not optimality["portfolio_ok"]:
        print(
            f"FAIL: portfolio missed the zoo best "
            f"({pf['estimated_misses']} vs {optimality['zoo_best_misses']}) "
            f"or overran its evaluation budget "
            f"({pf['evaluations']} vs {pf['evaluation_budget']:.0f})",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(f"OK: {GATED_FAMILY} search speedup {gated['speedup']:.1f}x "
          f">= {args.min_speedup:.0f}x; certified optimum matched at "
          f"{optimality['expanded_fraction']:.2e} of the tree; portfolio "
          f"within budget")
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark variant
# ---------------------------------------------------------------------------


def bench_scale() -> str:
    # Inlined from benchmarks/conftest.py so the standalone entry point
    # works without the benchmarks package on sys.path.
    return os.environ.get("REPRO_BENCH_SCALE", "small")


@pytest.fixture(scope="module")
def profiles():
    trace = get_workload("mibench", "jpeg_dec", bench_scale()).data
    out = {}
    for size in (1024, 4096, 16384):
        geometry = CacheGeometry.direct_mapped(size)
        out[size] = profile_trace(trace, geometry, PAPER_HASHED_BITS)
    return out


@pytest.mark.parametrize("family", ["1-in", "2-in", "4-in", "16-in", "general"])
@pytest.mark.parametrize("size", [1024, 4096, 16384])
def test_search_speed(benchmark, profiles, family, size):
    geometry = CacheGeometry.direct_mapped(size)
    fam = family_for_name(family, PAPER_HASHED_BITS, geometry.index_bits)
    profile = profiles[size]
    result = benchmark(strategy_for_name("steepest").search, profile, fam)
    assert result.function.is_full_rank
    # Far faster than the paper's 0.5-10 s budget on modern hardware.
    assert result.seconds < 10.0


def test_batched_matches_scalar_on_workload(profiles):
    """The bench's correctness precondition, also checked standalone."""
    geometry = CacheGeometry.direct_mapped(1024)
    fam = family_for_name(GATED_FAMILY, PAPER_HASHED_BITS, geometry.index_bits)
    batched = strategy_for_name("steepest").search(profiles[1024], fam)
    scalar = hill_climb_scalar(profiles[1024], fam)
    assert batched.function == scalar.function
    assert batched.history == scalar.history
    assert batched.evaluations == scalar.evaluations


if __name__ == "__main__":
    raise SystemExit(main())

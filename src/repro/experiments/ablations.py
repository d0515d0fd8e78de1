"""Ablations of the paper's design choices.

The paper motivates several decisions qualitatively; these drivers
measure them:

* **estimator fidelity** — how well the Eq. 4 estimate tracks exact
  simulation across candidate functions (Sec. 3.3 admits the profile
  cannot be exact for all functions simultaneously);
* **capacity filter** — what happens when capacity misses are *not*
  filtered out of the profile (the optimizer chases unfixable misses);
* **restarts** — how much the single-start local optimum costs;
* **search strategies** — what the alternatives to the paper's
  steepest descent (first-improvement, beam, annealing) buy on real
  profiles (see :mod:`repro.search.strategies`);
* **search timing** — the paper claims 0.5-10 s per construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.cache import engine
from repro.cache.geometry import CacheGeometry, PAPER_HASHED_BITS
from repro.cache.indexing import XorIndexing
from repro.profiling.conflict_profile import profile_blocks, profile_trace
from repro.profiling.estimator import MissEstimator
from repro.search.families import PermutationFamily, family_for_name
from repro.search.hill_climb import hill_climb_restarts
from repro.search.strategies import strategy_for_name
from repro.trace.trace import Trace

__all__ = [
    "EstimatorFidelity",
    "estimator_fidelity",
    "CapacityFilterAblation",
    "capacity_filter_ablation",
    "RestartsAblation",
    "restarts_ablation",
    "StrategyOutcome",
    "strategy_comparison",
    "SearchTiming",
    "search_timing",
    "OptimalityGap",
    "optimality_gap",
]


@dataclass(frozen=True)
class EstimatorFidelity:
    """Rank agreement between Eq. 4 estimates and exact miss counts."""

    sampled_functions: int
    spearman_rho: float
    estimated: list[int]
    exact: list[int]

    @property
    def ranks_well(self) -> bool:
        """The estimate only needs to *rank* candidates correctly."""
        return self.spearman_rho > 0.5


def estimator_fidelity(
    trace: Trace,
    geometry: CacheGeometry,
    samples: int = 40,
    seed: int = 0,
    n: int = PAPER_HASHED_BITS,
) -> EstimatorFidelity:
    """Sample random permutation functions; compare estimate vs exact."""
    m = geometry.index_bits
    profile = profile_trace(trace, geometry, n)
    estimator = MissEstimator(profile)
    blocks = trace.block_addresses(geometry.block_size)
    rng = np.random.default_rng(seed)
    family = PermutationFamily(n, m)
    sampled: list = []
    estimated: list[int] = []
    seen = set()
    while len(sampled) < samples:
        fn = family.random_member(rng)
        key = fn.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        sampled.append(fn)
        estimated.append(estimator.cost(fn.columns))
    # Exact-verify the whole sampled front.
    # Scored direct-mapped regardless of geometry.associativity: the
    # Eq. 4 estimate models direct-mapped conflicts, so that is the
    # reference whose ranking fidelity is being measured.
    dm_geometry = CacheGeometry((1 << m) * 4, block_size=4, associativity=1)
    exact = [
        result.misses for result in engine.evaluate_many(blocks, dm_geometry, sampled)
    ]
    if len(set(estimated)) <= 1 or len(set(exact)) <= 1:
        rho = 1.0 if len(set(exact)) <= 1 else 0.0
    else:
        rho = float(stats.spearmanr(estimated, exact).statistic)
    return EstimatorFidelity(
        sampled_functions=samples,
        spearman_rho=rho,
        estimated=estimated,
        exact=exact,
    )


@dataclass(frozen=True)
class CapacityFilterAblation:
    """Exact misses of functions optimized with vs without the filter."""

    baseline_misses: int
    with_filter_misses: int
    without_filter_misses: int

    @property
    def filter_helps(self) -> bool:
        return self.with_filter_misses <= self.without_filter_misses


def capacity_filter_ablation(
    trace: Trace,
    geometry: CacheGeometry,
    family: str = "2-in",
    n: int = PAPER_HASHED_BITS,
) -> CapacityFilterAblation:
    """Re-run the optimization with the capacity filter disabled.

    Disabling means profiling with effectively infinite capacity, so
    capacity misses contribute conflict vectors they cannot cash in.
    """
    m = geometry.index_bits
    blocks = trace.block_addresses(geometry.block_size)
    fam = family_for_name(family, n, m)
    steepest = strategy_for_name("steepest")

    filtered = profile_blocks(blocks, geometry.num_blocks, n)
    unfiltered = profile_blocks(blocks, len(blocks) + 1, n)

    with_filter = steepest.search(filtered, fam).function
    without_filter = steepest.search(unfiltered, fam).function

    return CapacityFilterAblation(
        baseline_misses=engine.simulate(blocks, geometry).misses,
        with_filter_misses=engine.simulate(
            blocks, geometry, XorIndexing(with_filter)
        ).misses,
        without_filter_misses=engine.simulate(
            blocks, geometry, XorIndexing(without_filter)
        ).misses,
    )


@dataclass(frozen=True)
class RestartsAblation:
    single_start_estimate: int
    restarts_estimate: int
    restarts: int

    @property
    def improvement_percent(self) -> float:
        if self.single_start_estimate == 0:
            return 0.0
        return 100.0 * (
            self.single_start_estimate - self.restarts_estimate
        ) / self.single_start_estimate


def restarts_ablation(
    trace: Trace,
    geometry: CacheGeometry,
    family: str = "2-in",
    restarts: int = 8,
    n: int = PAPER_HASHED_BITS,
    seed: int = 0,
    strategy="steepest",
) -> RestartsAblation:
    """Single-start hill climbing vs multi-start (our extension).

    The multi-start front advances in lockstep (one shared estimator
    gather per round); ``strategy`` swaps the per-start algorithm.
    """
    m = geometry.index_bits
    fam = family_for_name(family, n, m)
    profile = profile_trace(trace, geometry, n)
    single = strategy_for_name(strategy).search(profile, fam)
    multi = hill_climb_restarts(
        profile, fam, restarts=restarts, seed=seed, strategy=strategy
    )
    return RestartsAblation(
        single_start_estimate=single.estimated_misses,
        restarts_estimate=multi.estimated_misses,
        restarts=restarts,
    )


@dataclass(frozen=True)
class StrategyOutcome:
    """One strategy's search quality and cost on a fixed profile.

    ``certified`` / ``optimality_gap`` carry the exact-search provenance
    of :mod:`repro.search.branch_bound` (``None`` gap for heuristics,
    which prove nothing about their distance to the optimum).
    """

    strategy: str
    estimated_misses: int
    exact_misses: int
    steps: int
    evaluations: int
    seconds: float
    certified: bool = False
    optimality_gap: int | None = None


def strategy_comparison(
    trace: Trace,
    geometry: CacheGeometry,
    family: str = "2-in",
    strategies: tuple = (
        "steepest", "first-improvement", "beam:4", "anneal",
        "portfolio", "branch-bound",
    ),
    n: int = PAPER_HASHED_BITS,
) -> list[StrategyOutcome]:
    """Run every strategy on one profile; report estimate and exact misses.

    The paper evaluates steepest descent only; this driver measures
    what the strategy zoo changes — both in search quality (estimated
    and exactly simulated misses of the constructed function) and in
    search cost (steps, estimator evaluations, wall clock).  The
    default roster includes the portfolio race and branch-and-bound, so
    the table shows heuristic costs against a certified optimum (or its
    proven gap) where the exact search closes.
    """
    m = geometry.index_bits
    fam = family_for_name(family, n, m)
    profile = profile_trace(trace, geometry, n)
    estimator = MissEstimator(profile)
    blocks = trace.block_addresses(geometry.block_size)
    outcomes = []
    for spec in strategies:
        strategy = strategy_for_name(spec)
        result = strategy.search(profile, fam, estimator=estimator)
        exact = engine.simulate(blocks, geometry, XorIndexing(result.function))
        outcomes.append(
            StrategyOutcome(
                strategy=strategy.name,
                estimated_misses=result.estimated_misses,
                exact_misses=exact.misses,
                steps=result.steps,
                evaluations=result.evaluations,
                seconds=result.seconds,
                certified=result.certified,
                optimality_gap=result.optimality_gap,
            )
        )
    return outcomes


@dataclass(frozen=True)
class OptimalityGap:
    """Hill-climb local optimum vs the exhaustive global optimum.

    Quantifies the paper's Sec. 6.1 'room for improvement' on a hashed
    window small enough for :func:`repro.search.optimal_xor_function`.
    """

    n: int
    m: int
    start_estimate: int
    hill_climb_estimate: int
    optimal_estimate: int
    spaces_evaluated: int

    @property
    def gap_percent(self) -> float:
        """Extra conflict weight the local optimum leaves on the table,
        as a percentage of what the global optimum removes."""
        removable = self.start_estimate - self.optimal_estimate
        if removable <= 0:
            return 0.0
        return 100.0 * (self.hill_climb_estimate - self.optimal_estimate) / removable

    @property
    def hill_climb_is_optimal(self) -> bool:
        return self.hill_climb_estimate == self.optimal_estimate


def optimality_gap(
    blocks,
    capacity_blocks: int,
    n: int = 8,
    m: int = 4,
) -> OptimalityGap:
    """Measure the hill climber against the global optimum.

    The trace is profiled with a reduced hashed window (default n=8) so
    that every null space can be enumerated.
    """
    from repro.search.optimal_xor import optimal_xor_function

    profile = profile_blocks(np.asarray(blocks, dtype=np.uint64), capacity_blocks, n)
    family = family_for_name("general", n, m)
    climbed = strategy_for_name("steepest").search(profile, family)
    optimal = optimal_xor_function(profile, m)
    return OptimalityGap(
        n=n,
        m=m,
        start_estimate=climbed.start_misses,
        hill_climb_estimate=climbed.estimated_misses,
        optimal_estimate=optimal.estimated_misses,
        spaces_evaluated=optimal.spaces_evaluated,
    )


@dataclass(frozen=True)
class SearchTiming:
    family: str
    cache_bytes: int
    seconds: float
    steps: int
    evaluations: int


def search_timing(
    trace: Trace,
    cache_sizes: tuple[int, ...] = (1024, 4096, 16384),
    families: tuple[str, ...] = ("1-in", "2-in", "4-in", "16-in", "general"),
    n: int = PAPER_HASHED_BITS,
) -> list[SearchTiming]:
    """Wall-clock time of hash construction (paper Sec. 3.2: 0.5-10 s)."""
    timings = []
    for size in cache_sizes:
        geometry = CacheGeometry.direct_mapped(size)
        profile = profile_trace(trace, geometry, n)
        for family in families:
            fam = family_for_name(family, n, geometry.index_bits)
            t0 = time.perf_counter()
            result = strategy_for_name("steepest").search(profile, fam)
            timings.append(
                SearchTiming(
                    family=fam.name,
                    cache_bytes=size,
                    seconds=time.perf_counter() - t0,
                    steps=result.steps,
                    evaluations=result.evaluations,
                )
            )
    return timings

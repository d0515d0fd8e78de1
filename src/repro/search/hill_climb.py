"""Steepest-descent search over hash functions (paper Sec. 3.2).

Starting from the conventional index function, the algorithm evaluates
every admissible single-column replacement (each changes the null space
by at most one dimension, the paper's neighbourhood), moves to the best
strictly-improving neighbour, and stops at a local optimum.  Candidate
evaluation uses the Eq. 4 estimate, so no cache simulation happens
inside the loop.

The search runs one pass per
:class:`~repro.search.strategies.SearchStrategy` (the paper's is
``strategy_for_name("steepest").search(profile, family)``): each step
scores the whole neighbourhood (all columns x all candidate masks) in
one estimator gather and screens rank/dedup with the vectorized GF(2)
checks of :mod:`repro.gf2.batched`.  A frozen per-column descent with
its own scalar cost is kept as a test-side oracle: steepest descent
must reproduce its final function, cost history, step count and
evaluation count.

:func:`hill_climb_front` runs the conventional start plus random
restarts *in lockstep*, so one shared estimator gather serves the
whole front each round.
"""

from __future__ import annotations

import numpy as np

from repro.profiling.conflict_profile import ConflictProfile
from repro.profiling.estimator import MissEstimator
from repro.search.families import FunctionFamily
from repro.search.result import SearchResult

__all__ = [
    "SearchResult",
    "hill_climb_front",
    "hill_climb_restarts",
]


def hill_climb_front(
    profile: ConflictProfile,
    family: FunctionFamily,
    restarts: int = 0,
    seed: int = 0,
    max_steps: int | None = None,
    strategy="steepest",
) -> list[SearchResult]:
    """All local optima from the conventional start plus random restarts.

    The first entry is always the paper's single conventional start;
    each restart contributes one more local optimum.  Returning the
    whole front (instead of only the estimate-best member) lets callers
    exact-verify every candidate and pick the *simulated* winner — see
    ``repro.core.optimizer``.

    Point strategies (steepest descent, first-improvement) advance the
    whole front in lockstep: every round flattens all still-active
    climbers' neighbourhoods into one shared estimator gather.  Other
    strategies (beam, annealing) run per start against the same shared
    estimator.
    """
    from repro.search.batched import descend_front
    from repro.search.strategies import strategy_for_name

    strategy = strategy_for_name(strategy)
    estimator = MissEstimator(profile)
    rng = np.random.default_rng(seed)
    starts = [family.start()]
    starts += [family.random_member(rng) for _ in range(restarts)]
    pick = getattr(strategy, "pick", None)
    if pick is not None:
        return descend_front(
            estimator, family, starts, pick, max_steps,
            strategy_name=strategy.name,
        )
    return [
        strategy.search(
            profile, family, start=start, max_steps=max_steps,
            estimator=estimator, rng=rng,
        )
        for start in starts
    ]


def hill_climb_restarts(
    profile: ConflictProfile,
    family: FunctionFamily,
    restarts: int = 0,
    seed: int = 0,
    max_steps: int | None = None,
    strategy="steepest",
) -> SearchResult:
    """Hill climb from the conventional start plus random restarts.

    The paper's algorithm is single-start; restarts are our ablation of
    how much the local optimum costs (see ``experiments.ablations``).
    The estimate-best result over all starts is returned, re-reported
    against the conventional start via
    :meth:`~repro.search.result.SearchResult.with_start` (results are
    frozen and may be shared with cached artifacts).
    """
    front = hill_climb_front(
        profile, family, restarts=restarts, seed=seed, max_steps=max_steps,
        strategy=strategy,
    )
    best = front[0]
    for result in front[1:]:
        if result.estimated_misses < best.estimated_misses:
            best = result.with_start(front[0].start_misses)
    return best

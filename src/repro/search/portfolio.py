"""Portfolio racing: run several strategies in lockstep, pay for one.

No single member of the strategy zoo dominates across traces and
families — steepest descent wins some instances, first-improvement,
beam or annealing others.  A :class:`Portfolio` races K members from
the same start and returns the cheapest finisher, with two properties
the naive "run them all" loop does not have:

* **shared scoring** — descent-rule members (those exposing a ``pick``)
  advance as lanes of one race.  Lanes sitting on the *same* state
  share a single
  :meth:`~repro.profiling.estimator.MissEstimator.costs_for_moves_front`
  gather (they always do on round one, since every lane leaves the same
  start), and a lane racing alone in its state scores lazily — column
  by column, stopping at the first improving move — instead of paying
  for its full neighbourhood.  Estimator work is what the benchmarks
  meter, so the race reports the *shared* evaluation count, not the sum
  of solo runs;
* **exact replication** — each lane applies its member's own pick rule
  to the shared scores, with its own visited-set, in the member's exact
  solo scan order.  A lane's trajectory is therefore bit-identical to
  running that member alone (property-tested), which makes the
  portfolio never worse than its best member by construction.

Members without a ``pick`` (beam, annealing) cannot be advanced one
move at a time from outside, so they run to completion on the shared
estimator after the race, each with a deterministically folded rng.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.gf2.batched import ColumnReplacementScreen
from repro.names import PORTFOLIO_ZOO

__all__ = ["Portfolio", "DEFAULT_ZOO"]

#: Zoo order for ``portfolio:K`` specs (see :data:`repro.names.PORTFOLIO_ZOO`).
DEFAULT_ZOO = PORTFOLIO_ZOO


class _Lane:
    """One racing member: its strategy, pick rule and climber state."""

    __slots__ = ("member_index", "strategy", "pick", "lazy", "climber")

    def __init__(self, member_index, strategy, climber):
        from repro.search.batched import pick_first_improvement

        self.member_index = member_index
        self.strategy = strategy
        self.pick = strategy.pick
        self.lazy = self.pick is pick_first_improvement
        self.climber = climber


def _lazy_first_improvement_step(estimator, family, climber) -> bool:
    """Advance one first-improvement move, scoring only scanned columns.

    Replicates :func:`repro.search.batched.pick_first_improvement`'s
    scan order exactly — columns in index order, improving candidates in
    enumeration order within a column — but asks the estimator for one
    column at a time and stops at the first feasible unvisited
    improvement, so a move found in column ``c`` never pays for columns
    ``c+1..m-1``.  Returns ``False`` at a local optimum (the full scan
    found nothing, exactly as the solo climber would conclude).
    """
    fn = climber.current
    for c in range(fn.m):
        candidates = family.column_candidates(fn, c)
        if len(candidates) == 0:
            continue
        candidates = np.asarray(candidates, dtype=np.uint64)
        climber.evaluations += len(candidates)
        costs = estimator.costs_for_moves_front(
            [fn.columns],
            candidates,
            np.zeros(len(candidates), dtype=np.intp),
            np.full(len(candidates), c, dtype=np.intp),
        )
        improving = np.nonzero(costs < climber.cost)[0]
        if len(improving) == 0:
            continue
        screen = ColumnReplacementScreen(fn.columns, c, fn.n)
        feasible = screen.full_rank(candidates)
        for i in improving:
            if not feasible[i]:
                continue
            key = screen.canonical_key_of(int(candidates[i]))
            if key in climber.visited:
                continue
            climber.current = fn.with_column(c, int(candidates[i]))
            climber.cost = int(costs[i])
            climber.visited.add(key)
            climber.history.append(climber.cost)
            climber.steps += 1
            return True
    return False


def _race(estimator, family, lanes, max_steps) -> None:
    """Advance every lane one move per round until all finish.

    Lanes are grouped by their *exact* current columns each round; one
    flatten + gather serves a whole group (each lane still applies its
    own pick rule and visited-set to the shared scores, so trajectories
    replicate solo runs).  A lone lazy lane skips the full gather
    entirely.
    """
    from repro.search.batched import _flatten_neighbourhoods

    while True:
        active = []
        for lane in lanes:
            climber = lane.climber
            if not climber.active:
                continue
            if max_steps is not None and climber.steps >= max_steps:
                climber.finish()
                continue
            active.append(lane)
        if not active:
            return
        groups: dict[tuple[int, ...], list[_Lane]] = {}
        for lane in active:
            key = tuple(int(v) for v in lane.climber.current.columns)
            groups.setdefault(key, []).append(lane)
        for group in groups.values():
            if len(group) == 1 and group[0].lazy:
                lone = group[0].climber
                if not _lazy_first_improvement_step(estimator, family, lone):
                    lone.finish()
                continue
            state = group[0].climber.current
            masks, owners, cols, segments = _flatten_neighbourhoods(
                family, [state]
            )
            if len(masks) == 0:
                for lane in group:
                    lane.climber.finish()
                continue
            costs = estimator.costs_for_moves_front(
                [state.columns], masks, owners, cols
            )
            for lane in group:
                climber = lane.climber
                climber.evaluations += len(masks)
                move = lane.pick(climber, segments[0], costs)
                if move is None:
                    climber.finish()
                    continue
                c, mask, key, cost = move
                climber.current = state.with_column(c, mask)
                climber.cost = cost
                climber.visited.add(key)
                climber.history.append(cost)
                climber.steps += 1


@dataclass(frozen=True)
class Portfolio:
    """Race ``members`` from one start; return the cheapest finisher.

    ``members`` are strategy specs (or instances) resolved through
    :func:`repro.search.strategies.strategy_for_name`; ``seed`` folds
    into the rng handed to stochastic members.  Winner ties break
    toward the earlier member, so the result is deterministic whenever
    every member is.
    """

    members: tuple = ("steepest", "first-improvement")
    seed: int = 0

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) == 0:
            raise ValueError("portfolio needs at least one member")
        object.__setattr__(self, "members", members)

    def _resolved(self) -> tuple:
        cached = self.__dict__.get("_member_cache")
        if cached is None:
            from repro.search.strategies import strategy_for_name

            cached = tuple(strategy_for_name(m) for m in self.members)
            for member in cached:
                if isinstance(member, Portfolio):
                    raise ValueError(
                        "portfolio members cannot themselves be portfolios"
                    )
            object.__setattr__(self, "_member_cache", cached)
        return cached

    @property
    def deterministic(self) -> bool:
        return all(member.deterministic for member in self._resolved())

    @property
    def name(self) -> str:
        inner = "+".join(member.name for member in self._resolved())
        if not self.deterministic:
            inner += f";seed={self.seed}"
        return f"portfolio({inner})"

    def search(
        self, profile, family, *, start=None, max_steps=None, estimator=None,
        rng=None,
    ):
        from repro.profiling.estimator import MissEstimator
        from repro.search.batched import _Climber

        t0 = time.perf_counter()
        if estimator is None:
            estimator = MissEstimator(profile)
        members = self._resolved()
        evaluations_before = estimator.evaluations
        start = start if start is not None else family.start()
        start_cost = estimator.cost(start.columns)
        start_key = start.canonical_key()
        entropy = None if rng is None else int(rng.integers(1 << 63))

        racing, standalone = [], []
        for index, member in enumerate(members):
            if getattr(member, "pick", None) is not None:
                racing.append((index, member))
            else:
                standalone.append((index, member))

        results: dict[int, object] = {}
        lanes = []
        for index, member in racing:
            climber = _Climber(family, start)
            climber.cost = start_cost
            climber.start_cost = start_cost
            climber.history = [start_cost]
            climber.visited = {start_key}
            lanes.append(_Lane(index, member, climber))
        if lanes:
            _race(estimator, family, lanes, max_steps)
            for lane in lanes:
                results[lane.member_index] = lane.climber.result(
                    family, lane.strategy.name
                )
        for index, member in standalone:
            identity = (
                [self.seed, index]
                if entropy is None
                else [self.seed, index, entropy]
            )
            results[index] = member.search(
                profile, family, start=start, max_steps=max_steps,
                estimator=estimator, rng=np.random.default_rng(identity),
            )

        winner = min(
            results, key=lambda index: (results[index].estimated_misses, index)
        )
        return replace(
            results[winner],
            strategy_name=self.name,
            start_misses=start_cost,
            evaluations=estimator.evaluations - evaluations_before,
            seconds=time.perf_counter() - t0,
        )

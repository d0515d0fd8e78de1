"""Batched neighbourhood engines behind every search strategy.

One descent step of the paper's Sec. 3.2 search scores the whole
neighbourhood — every column times every admissible replacement mask.
The engines here flatten that neighbourhood (for one climber or for a
lockstep front of climbers) into a single
:meth:`~repro.profiling.estimator.MissEstimator.costs_for_moves_front`
gather, then screen candidates with the vectorized GF(2) rank/key
checks of :mod:`repro.gf2.batched` instead of instantiating an
:class:`~repro.gf2.hashfn.XorHashFunction` per candidate.

Three engines share that kernel:

* :func:`descend_front` — lockstep local search (steepest or
  first-improvement pick rules) over any number of simultaneous
  starts; with one start and :func:`pick_steepest` it is bit-identical
  to the frozen per-column descent kept as a test-side oracle (same
  final function, cost history, step and evaluation counts —
  property-tested);
* :func:`beam_search` — keeps the ``width`` best distinct successors
  per generation instead of one;
* :func:`anneal_search` — simulated annealing over the same
  neighbourhood, accepting uphill moves with probability
  ``exp(-delta / T)``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.gf2.batched import ColumnReplacementScreen
from repro.gf2.hashfn import XorHashFunction
from repro.profiling.estimator import MissEstimator
from repro.search.families import FunctionFamily
from repro.search.result import SearchResult

__all__ = [
    "descend_front",
    "beam_search",
    "anneal_search",
    "pick_steepest",
    "pick_first_improvement",
]


def _validate_start(family: FunctionFamily, start: XorHashFunction) -> None:
    if not family.contains(start):
        raise ValueError(
            f"start function is not a member of family {family.name!r}"
        )
    if not start.is_full_rank:
        raise ValueError("start function must be full rank")


def _flatten_neighbourhoods(family, functions):
    """Flatten every candidate move of every function for one gather.

    Returns ``(masks, owners, move_columns, segments)`` where
    ``segments[k]`` lists ``(column, candidates, offset)`` triples in
    column order for function ``k`` — the per-climber view into the
    flat arrays that the pick rules scan.
    """
    masks, owners, cols = [], [], []
    segments: list[list] = [[] for _ in functions]
    offset = 0
    for k, fn in enumerate(functions):
        for c in range(fn.m):
            candidates = family.column_candidates(fn, c)
            if len(candidates) == 0:
                continue
            segments[k].append((c, candidates, offset))
            masks.append(np.asarray(candidates, dtype=np.uint64))
            owners.append(np.full(len(candidates), k, dtype=np.intp))
            cols.append(np.full(len(candidates), c, dtype=np.intp))
            offset += len(candidates)
    if masks:
        return (
            np.concatenate(masks),
            np.concatenate(owners),
            np.concatenate(cols),
            segments,
        )
    empty = np.zeros(0, dtype=np.uint64)
    return empty, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), segments


class _Climber:
    """Mutable state of one descent within a lockstep front."""

    __slots__ = (
        "current", "cost", "start_cost", "visited", "history",
        "steps", "evaluations", "active", "t0", "seconds",
    )

    def __init__(self, family: FunctionFamily, start: XorHashFunction):
        _validate_start(family, start)
        self.current = start
        self.cost = 0
        self.start_cost = 0
        self.visited: set = set()
        self.history: list[int] = []
        self.steps = 0
        self.evaluations = 0
        self.active = True
        self.t0 = time.perf_counter()
        self.seconds = 0.0

    def finish(self) -> None:
        self.active = False
        self.seconds = time.perf_counter() - self.t0

    def result(self, family: FunctionFamily, strategy_name: str) -> SearchResult:
        return SearchResult(
            function=self.current,
            estimated_misses=self.cost,
            start_misses=self.start_cost,
            steps=self.steps,
            evaluations=self.evaluations,
            seconds=self.seconds,
            history=self.history,
            family_name=family.name,
            strategy_name=strategy_name,
        )


def pick_steepest(climber: _Climber, segments, costs) -> tuple | None:
    """The paper's rule: cheapest feasible strictly-improving neighbour.

    Ties break by column order then stable cost order within a column —
    the exact scan order of the per-column oracle, so the batched and
    scalar climbers choose identical moves.
    """
    best_cost = climber.cost
    chosen = None
    for c, candidates, offset in segments:
        segment = costs[offset : offset + len(candidates)]
        screen = None
        for i in np.argsort(segment, kind="stable"):
            cost = int(segment[i])
            if cost >= best_cost:
                break
            if screen is None:
                screen = ColumnReplacementScreen(
                    climber.current.columns, c, climber.current.n
                )
            if not screen.keeps_full_rank(int(candidates[i])):
                continue
            key = screen.canonical_key_of(int(candidates[i]))
            if key in climber.visited:
                continue
            best_cost = cost
            chosen = (c, int(candidates[i]), key, cost)
            break
    return chosen


def pick_first_improvement(climber: _Climber, segments, costs) -> tuple | None:
    """Take the first feasible strict improvement in enumeration order.

    Cheaper per step than steepest descent (no full argsort scan pays
    off when almost every neighbour improves) at the price of a less
    greedy trajectory.
    """
    for c, candidates, offset in segments:
        segment = costs[offset : offset + len(candidates)]
        improving = np.nonzero(segment < climber.cost)[0]
        if len(improving) == 0:
            continue
        screen = ColumnReplacementScreen(
            climber.current.columns, c, climber.current.n
        )
        feasible = screen.full_rank(candidates)
        for i in improving:
            if not feasible[i]:
                continue
            key = screen.canonical_key_of(int(candidates[i]))
            if key in climber.visited:
                continue
            return (c, int(candidates[i]), key, int(segment[i]))
    return None


def descend_front(
    estimator: MissEstimator,
    family: FunctionFamily,
    starts,
    pick=pick_steepest,
    max_steps: int | None = None,
    strategy_name: str = "steepest",
) -> list[SearchResult]:
    """Advance every start's local search in lockstep.

    Each round flattens the neighbourhoods of all still-active climbers
    into one estimator gather, then applies the ``pick`` rule per
    climber.  Climbers at a local optimum (or at ``max_steps``) drop
    out; the loop ends when none remain.  Results are per-climber
    identical to running them sequentially — lockstep only changes how
    the estimator work is batched.
    """
    climbers = [_Climber(family, start) for start in starts]
    for climber in climbers:
        climber.cost = estimator.cost(climber.current.columns)
        climber.evaluations += 1
        climber.start_cost = climber.cost
        climber.history = [climber.cost]
        climber.visited = {climber.current.canonical_key()}
    while True:
        active = []
        for climber in climbers:
            if not climber.active:
                continue
            if max_steps is not None and climber.steps >= max_steps:
                climber.finish()
                continue
            active.append(climber)
        if not active:
            break
        masks, owners, cols, segments = _flatten_neighbourhoods(
            family, [climber.current for climber in active]
        )
        for climber, segs in zip(active, segments):
            climber.evaluations += sum(len(cands) for _, cands, _ in segs)
        if len(masks) == 0:
            for climber in active:
                climber.finish()
            continue
        costs = estimator.costs_for_moves_front(
            [climber.current.columns for climber in active], masks, owners, cols
        )
        for k, climber in enumerate(active):
            move = pick(climber, segments[k], costs)
            if move is None:
                climber.finish()
                continue
            c, mask, key, cost = move
            climber.current = climber.current.with_column(c, mask)
            climber.cost = cost
            climber.visited.add(key)
            climber.history.append(cost)
            climber.steps += 1
    return [climber.result(family, strategy_name) for climber in climbers]


def beam_search(
    estimator: MissEstimator,
    family: FunctionFamily,
    start: XorHashFunction | None = None,
    width: int = 4,
    max_steps: int | None = None,
    strategy_name: str = "",
) -> SearchResult:
    """Beam search: keep the ``width`` cheapest distinct successors.

    Each generation scores every beam member's whole neighbourhood in
    one shared gather, then keeps the ``width`` cheapest feasible
    successors (full rank, canonical key not yet visited) that strictly
    improve on their generating member.  Stops when a generation adds
    nothing; returns the best function seen.
    """
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    t0 = time.perf_counter()
    start = start if start is not None else family.start()
    _validate_start(family, start)
    evaluations_before = estimator.evaluations
    start_cost = estimator.cost(start.columns)
    beam: list[tuple[XorHashFunction, int]] = [(start, start_cost)]
    visited = {start.canonical_key()}
    best_fn, best_cost = start, start_cost
    history = [start_cost]
    steps = 0
    while max_steps is None or steps < max_steps:
        states = [fn for fn, _ in beam]
        masks, owners, cols, segments = _flatten_neighbourhoods(family, states)
        if len(masks) == 0:
            break
        costs = estimator.costs_for_moves_front(
            [fn.columns for fn in states], masks, owners, cols
        )
        member_costs = np.array([cost for _, cost in beam], dtype=np.int64)
        improving = np.nonzero(costs < member_costs[owners])[0]
        if len(improving) == 0:
            break
        order = improving[np.argsort(costs[improving], kind="stable")]
        screens: dict[tuple[int, int], tuple] = {}
        next_beam: list[tuple[XorHashFunction, int]] = []
        taken: set = set()
        for idx in order:
            k, c = int(owners[idx]), int(cols[idx])
            cached = screens.get((k, c))
            if cached is None:
                column, candidates, offset = next(
                    seg for seg in segments[k] if seg[0] == c
                )
                screen = ColumnReplacementScreen(states[k].columns, c, states[k].n)
                # Beam inspects several candidates per touched segment,
                # so the array-valued canonical keys amortize: one
                # vectorized basis pass instead of per-candidate keys.
                cached = (
                    offset, screen, screen.full_rank(candidates),
                    screen.canonical_bases(candidates),
                )
                screens[(k, c)] = cached
            offset, screen, feasible, key_rows = cached
            if not feasible[idx - offset]:
                continue
            key = screen.key_from_row(key_rows[idx - offset])
            if key in visited or key in taken:
                continue
            taken.add(key)
            next_beam.append(
                (states[k].with_column(c, int(masks[idx])), int(costs[idx]))
            )
            if len(next_beam) == width:
                break
        if not next_beam:
            break
        visited |= taken
        beam = next_beam
        steps += 1
        round_fn, round_cost = beam[0]  # built in cost order
        history.append(round_cost)
        if round_cost < best_cost:
            best_fn, best_cost = round_fn, round_cost
    return SearchResult(
        function=best_fn,
        estimated_misses=best_cost,
        start_misses=start_cost,
        steps=steps,
        evaluations=estimator.evaluations - evaluations_before,
        seconds=time.perf_counter() - t0,
        history=history,
        family_name=family.name,
        strategy_name=strategy_name or f"beam({width})",
    )


def anneal_search(
    estimator: MissEstimator,
    family: FunctionFamily,
    start: XorHashFunction | None = None,
    max_steps: int | None = None,
    rng=None,
    iterations: int = 4000,
    start_temperature: float | None = None,
    cooling: float = 0.995,
    strategy_name: str = "anneal",
) -> SearchResult:
    """Simulated annealing over the batched neighbourhood.

    Proposals draw uniformly from the scored neighbourhood of the
    current state (one gather per accepted move — the scores stay valid
    while the state is unchanged).  Downhill moves always pass; uphill
    moves pass with probability ``exp(-delta / T)`` under a geometric
    cooling schedule.  Returns the best full-rank function seen.
    ``max_steps`` bounds *accepted* moves, mirroring the descent
    engines; ``iterations`` bounds proposals.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if not 0.0 < cooling <= 1.0:
        raise ValueError(f"cooling must be in (0, 1], got {cooling}")
    rng = rng if rng is not None else np.random.default_rng(0)
    t0 = time.perf_counter()
    start = start if start is not None else family.start()
    _validate_start(family, start)
    evaluations_before = estimator.evaluations
    start_cost = estimator.cost(start.columns)
    current, current_cost = start, start_cost
    best_fn, best_cost = start, start_cost
    history = [start_cost]
    temperature = (
        start_temperature
        if start_temperature is not None
        else max(1.0, 0.1 * start_cost)
    )
    steps = 0
    proposals = 0
    neighbourhood = None
    while proposals < iterations and (max_steps is None or steps < max_steps):
        if neighbourhood is None:
            masks, owners, cols, segments = _flatten_neighbourhoods(
                family, [current]
            )
            if len(masks) == 0:
                break
            costs = estimator.costs_for_moves_front(
                [current.columns], masks, owners, cols
            )
            neighbourhood = (masks, cols, costs, segments[0], {})
        masks, cols, costs, segments, screens = neighbourhood
        i = int(rng.integers(0, len(masks)))
        proposals += 1
        temperature = max(temperature * cooling, 1e-9)
        delta = int(costs[i]) - current_cost
        if delta >= 0 and rng.random() >= np.exp(
            -min(delta / temperature, 700.0)
        ):
            continue
        c = int(cols[i])
        cached = screens.get(c)
        if cached is None:
            column, candidates, offset = next(
                seg for seg in segments if seg[0] == c
            )
            screen = ColumnReplacementScreen(current.columns, c, current.n)
            cached = (offset, screen.full_rank(candidates))
            screens[c] = cached
        offset, feasible = cached
        if not feasible[i - offset]:
            continue
        current = current.with_column(c, int(masks[i]))
        current_cost = int(costs[i])
        steps += 1
        history.append(current_cost)
        if current_cost < best_cost:
            best_fn, best_cost = current, current_cost
        neighbourhood = None
    return SearchResult(
        function=best_fn,
        estimated_misses=best_cost,
        start_misses=start_cost,
        steps=steps,
        evaluations=estimator.evaluations - evaluations_before,
        seconds=time.perf_counter() - t0,
        history=history,
        family_name=family.name,
        strategy_name=strategy_name,
    )

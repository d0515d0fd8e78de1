"""Pluggable search strategies over the batched neighbourhood kernel.

The paper evaluates a single algorithm — steepest descent on the Eq. 4
estimate (Sec. 3.2).  This module keeps that algorithm the default
everywhere while opening the search layer to alternatives that reuse
the same batched scoring kernel (:mod:`repro.search.batched`):

========================  ====================================================
``steepest``              The paper's algorithm: move to the best strictly
                          improving neighbour, stop at a local optimum.
``first-improvement``     Take the first improving neighbour in enumeration
                          order; cheaper per step, less greedy trajectory.
``beam(k)``               Keep the ``k`` cheapest distinct successors per
                          generation; explores around the greedy path.
``anneal``                Simulated annealing; escapes local optima by
                          accepting uphill moves with ``exp(-delta/T)``.
``branch-bound``          Exact search (:mod:`repro.search.branch_bound`):
                          proves the family optimum, or reports the gap to
                          the best open bound when the node budget ends.
``portfolio(k)``          Race the first ``k`` zoo members in lockstep on
                          shared gathers (:mod:`repro.search.portfolio`);
                          returns the cheapest finisher.
========================  ====================================================

A strategy is anything satisfying :class:`SearchStrategy`; one search
pass is ``strategy_for_name(spec).search(profile, family)``.  Pass an
instance (or a spec string such as ``"beam:8"``) to
:func:`repro.search.hill_climb_front`,
:func:`repro.core.optimizer.optimize_for_trace`, a spec's
``search.strategy`` (and so any campaign grid, see
:func:`repro.api.expand_grid`) or the ``repro search`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.names import ANNEAL_COOLING, ANNEAL_ITERATIONS, BEAM_WIDTH, parse_strategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.profiling.conflict_profile import ConflictProfile
    from repro.profiling.estimator import MissEstimator
    from repro.search.families import FunctionFamily
    from repro.search.result import SearchResult

__all__ = [
    "SearchStrategy",
    "SteepestDescent",
    "FirstImprovement",
    "BeamSearch",
    "Annealing",
    "strategy_for_name",
]


@runtime_checkable
class SearchStrategy(Protocol):
    """What the search entry points expect of a strategy.

    ``deterministic`` declares whether two runs with identical inputs
    (and no ``rng``) agree — the pipeline cache uses it to decide
    whether the search seed belongs in the artifact key.  ``name`` must
    encode every parameter that changes results, for the same reason.
    """

    @property
    def name(self) -> str: ...

    @property
    def deterministic(self) -> bool: ...

    def search(
        self,
        profile: "ConflictProfile",
        family: "FunctionFamily",
        *,
        start=None,
        max_steps: int | None = None,
        estimator: "MissEstimator | None" = None,
        rng=None,
    ) -> "SearchResult": ...


def _estimator_for(profile, estimator):
    from repro.profiling.estimator import MissEstimator

    return estimator if estimator is not None else MissEstimator(profile)


class _PointDescent:
    """One descent from one start on the batched kernel; subclasses
    name it and choose ``pick``, the per-step selection rule (which
    also enables the lockstep front path)."""

    deterministic = True

    def search(
        self, profile, family, *, start=None, max_steps=None, estimator=None,
        rng=None,
    ):
        from repro.search.batched import descend_front

        start = start if start is not None else family.start()
        return descend_front(
            _estimator_for(profile, estimator), family, [start],
            self.pick, max_steps, strategy_name=self.name,
        )[0]


@dataclass(frozen=True)
class SteepestDescent(_PointDescent):
    """The paper's Sec. 3.2 algorithm on the batched kernel."""

    @property
    def name(self) -> str:
        return "steepest"

    @property
    def pick(self):
        from repro.search.batched import pick_steepest

        return pick_steepest


@dataclass(frozen=True)
class FirstImprovement(_PointDescent):
    """Accept the first improving neighbour instead of the best one."""

    @property
    def name(self) -> str:
        return "first-improvement"

    @property
    def pick(self):
        from repro.search.batched import pick_first_improvement

        return pick_first_improvement


@dataclass(frozen=True)
class BeamSearch:
    """Population descent keeping the ``width`` best distinct states."""

    width: int = BEAM_WIDTH
    deterministic = True

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"beam width must be >= 1, got {self.width}")

    @property
    def name(self) -> str:
        return f"beam({self.width})"

    def search(
        self, profile, family, *, start=None, max_steps=None, estimator=None,
        rng=None,
    ):
        from repro.search.batched import beam_search

        return beam_search(
            _estimator_for(profile, estimator), family, start=start,
            width=self.width, max_steps=max_steps, strategy_name=self.name,
        )


@dataclass(frozen=True)
class Annealing:
    """Simulated annealing; ``seed`` is used when no ``rng`` is passed."""

    iterations: int = ANNEAL_ITERATIONS
    cooling: float = ANNEAL_COOLING
    start_temperature: float | None = None
    seed: int = 0
    deterministic = False

    @property
    def name(self) -> str:
        return (
            f"anneal(iters={self.iterations},cooling={self.cooling},"
            f"seed={self.seed})"
        )

    def search(
        self, profile, family, *, start=None, max_steps=None, estimator=None,
        rng=None,
    ):
        import numpy as np

        from repro.search.batched import anneal_search

        if rng is None:
            rng = np.random.default_rng(self.seed)
        else:
            # Fold the caller's stream (e.g. the restart identity from
            # hill_climb_front) with the strategy's own seed, so both
            # influence the walk — the configured seed must never be
            # silently dead (it is part of the cache-key name).
            rng = np.random.default_rng(
                [self.seed, int(rng.integers(1 << 63))]
            )
        return anneal_search(
            _estimator_for(profile, estimator), family, start=start,
            max_steps=max_steps, rng=rng, iterations=self.iterations,
            start_temperature=self.start_temperature, cooling=self.cooling,
            strategy_name=self.name,
        )


def strategy_for_name(spec) -> SearchStrategy:
    """Resolve a strategy spec string (syntax: :func:`repro.names.parse_strategy`)
    to an instance.

    :class:`SearchStrategy` instances pass through unchanged, so every
    entry point takes either form.
    """
    if not isinstance(spec, str):
        if isinstance(spec, SearchStrategy):
            return spec
        raise TypeError(f"not a search strategy: {spec!r}")
    kind, params = parse_strategy(spec)
    if kind == "steepest":
        return SteepestDescent()
    if kind == "first-improvement":
        return FirstImprovement()
    if kind == "beam":
        return BeamSearch(params["width"])
    if kind == "anneal":
        return Annealing(**params)
    if kind == "branch-bound":
        from repro.search.branch_bound import BranchBound

        return BranchBound(**params)
    from repro.search.portfolio import DEFAULT_ZOO, Portfolio

    return Portfolio(members=DEFAULT_ZOO[: params["size"]])

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

A strategy is anything satisfying :class:`SearchStrategy`; pass an
instance (or a spec string such as ``"beam:8"``) to
:func:`repro.search.hill_climb`, :func:`repro.search.hill_climb_front`,
:func:`repro.core.optimizer.optimize_for_trace`, a spec's
``search.strategy`` (and so any campaign grid, see
:func:`repro.api.expand_grid`) or the ``repro search`` CLI.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

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


@dataclass(frozen=True)
class SteepestDescent:
    """The paper's Sec. 3.2 algorithm on the batched kernel."""

    deterministic = True

    @property
    def name(self) -> str:
        return "steepest"

    @property
    def pick(self):
        """Per-step selection rule (enables the lockstep front path)."""
        from repro.search.batched import pick_steepest

        return pick_steepest

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
class FirstImprovement:
    """Accept the first improving neighbour instead of the best one."""

    deterministic = True

    @property
    def name(self) -> str:
        return "first-improvement"

    @property
    def pick(self):
        from repro.search.batched import pick_first_improvement

        return pick_first_improvement

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
class BeamSearch:
    """Population descent keeping the ``width`` best distinct states."""

    width: int = 4
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

    iterations: int = 4000
    cooling: float = 0.995
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


_BEAM_SPEC = re.compile(r"^beam(?:[:(](\d+)\)?)?$")
_ANNEAL_SPEC = re.compile(r"^anneal(?:[:(](\d+)(?:[:,](\d+))?\)?)?$")
_BRANCH_BOUND_SPEC = re.compile(r"^branch-?(?:and-?)?bound(?:[:(](\d+)\)?)?$")
_PORTFOLIO_SPEC = re.compile(r"^portfolio(?:[:(](\d+)\)?)?$")


def strategy_for_name(spec) -> SearchStrategy:
    """Resolve a strategy spec to an instance.

    Accepts ``"steepest"``, ``"first-improvement"`` (or ``"first"``),
    ``"beam"`` / ``"beam:8"`` / ``"beam(8)"``, ``"anneal"`` /
    ``"anneal:10000"`` / ``"anneal:10000:7"`` (iterations, seed),
    ``"branch-bound"`` / ``"branch-bound:50000"`` (node budget) and
    ``"portfolio"`` / ``"portfolio:3"`` (the first ``k`` members of
    :data:`repro.search.portfolio.DEFAULT_ZOO`; default 2).
    :class:`SearchStrategy` instances pass through unchanged, so every
    entry point takes either form.
    """
    if not isinstance(spec, str):
        if isinstance(spec, SearchStrategy):
            return spec
        raise TypeError(f"not a search strategy: {spec!r}")
    text = spec.strip().lower()
    if text in ("steepest", "steepest-descent", "descent"):
        return SteepestDescent()
    if text in ("first", "first-improvement"):
        return FirstImprovement()
    match = _BEAM_SPEC.match(text)
    if match:
        return BeamSearch(int(match.group(1)) if match.group(1) else 4)
    match = _ANNEAL_SPEC.match(text)
    if match:
        kwargs = {}
        if match.group(1):
            kwargs["iterations"] = int(match.group(1))
        if match.group(2):
            kwargs["seed"] = int(match.group(2))
        return Annealing(**kwargs)
    match = _BRANCH_BOUND_SPEC.match(text)
    if match:
        from repro.search.branch_bound import BranchBound

        if match.group(1):
            return BranchBound(max_nodes=int(match.group(1)))
        return BranchBound()
    match = _PORTFOLIO_SPEC.match(text)
    if match:
        from repro.search.portfolio import DEFAULT_ZOO, Portfolio

        k = int(match.group(1)) if match.group(1) else 2
        if not 1 <= k <= len(DEFAULT_ZOO):
            raise ValueError(
                f"portfolio size must be in 1..{len(DEFAULT_ZOO)}, got {k}"
            )
        return Portfolio(members=DEFAULT_ZOO[:k])
    raise ValueError(f"unknown search strategy {spec!r}")

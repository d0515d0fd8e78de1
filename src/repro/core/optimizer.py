"""End-to-end application-specific index optimization.

This is the paper's headline flow: profile the application's memory
trace once (Fig. 1), hill-climb the chosen function family on the
Eq. 4 estimate (Sec. 3.2), then verify the winner by exact simulation
and report the fraction of misses removed versus conventional modulo
indexing (the quantity in Tables 2 and 3).

A result served from its stored record is rebuilt from plain JSON: the
search, the GF(2) matrix code and NumPy are imported only when a result
has to be computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.api.errors import SpecError
from repro.api.report import (
    function_from_json,
    function_to_json,
    stats_from_json,
    stats_to_json,
)
from repro.cache.geometry import CacheGeometry, PAPER_HASHED_BITS
from repro.cache.stats import CacheStats
from repro.gf2.hashfn import XorHashFunction
from repro.names import family_name, strategy_identity
from repro.pipeline.artifact_cache import stable_key
from repro.pipeline.context import PipelineContext, geometry_params
from repro.search.result import SearchResult
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.spec import ExecutionSpec, ExperimentSpec
    from repro.profiling.conflict_profile import ConflictProfile
    from repro.search.families import FunctionFamily
    from repro.search.strategies import SearchStrategy

__all__ = ["OptimizationResult", "optimize_for_trace"]


@dataclass
class OptimizationResult:
    """Everything produced by one optimization run."""

    trace_name: str
    geometry: CacheGeometry
    family_name: str
    hash_function: XorHashFunction
    baseline: CacheStats
    optimized: CacheStats
    search: SearchResult
    #: ``None`` only on results rebuilt from a JSON report — the
    #: profile lives in the artifact cache, not in reports.
    profile: ConflictProfile | None
    reverted: bool = False
    #: The :class:`~repro.api.spec.ExperimentSpec` that produced this
    #: result, attached by the spec-driven entry points
    #: (:meth:`repro.api.Session.optimize`, ``repro run``) and echoed
    #: into :meth:`to_json` so reports are replayable.
    spec: "ExperimentSpec | None" = field(default=None, compare=False)
    #: Content digest of the input trace (ties the report to the
    #: artifact-cache keys derived from it).
    trace_digest: str = ""
    #: Digest of the conflict profile the search ran on; kept separate
    #: so report round trips survive dropping the profile itself.
    profile_digest: str = ""
    #: Name of the compute backend the engine kernels dispatched to,
    #: recorded by the spec-driven entry points.  Execution metadata
    #: only — every backend computes bit-identical results — so it is
    #: excluded from equality like the spec.
    backend: str = field(default="", compare=False)
    #: Degradation warnings recorded during the run (e.g. a JIT kernel
    #: failing at runtime and falling back to NumPy).  Execution
    #: metadata like ``backend``: results are unaffected, reports carry
    #: it under ``environment.warnings`` only when non-empty.
    warnings: list[str] = field(default_factory=list, compare=False)

    @property
    def removed_percent(self) -> float:
        """Exact % of misses removed (negative = misses added).

        This is the number Tables 2 and 3 report per benchmark.
        """
        return self.optimized.removed_fraction(self.baseline)

    def base_misses_per_kuop(self, uops: int) -> float:
        """Baseline misses/K-uop (Table 2's 'base' columns)."""
        return self.baseline.misses_per_kuop(uops)

    def summary(self) -> str:
        return (
            f"{self.trace_name} @ {self.geometry}: "
            f"{self.family_name} removes {self.removed_percent:.1f}% of misses "
            f"({self.baseline.misses} -> {self.optimized.misses})"
            + (" [reverted to modulo]" if self.reverted else "")
        )

    def to_json(self, spec: "ExperimentSpec | None" = None) -> dict[str, Any]:
        """The stable ``repro-report/v1`` payload for this result.

        ``spec`` defaults to the one attached by the spec-driven entry
        points; it is echoed verbatim into the report, which is what
        makes reports replayable inputs.
        """
        from repro.api.report import optimization_report

        return optimization_report(self, spec=spec)

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "OptimizationResult":
        """Rebuild a result from its :meth:`to_json` payload."""
        from repro.api.report import optimization_from_report

        return optimization_from_report(payload)


def optimize_for_trace(
    trace: Trace,
    geometry: CacheGeometry,
    family: str | FunctionFamily = "2-in",
    n: int = PAPER_HASHED_BITS,
    guard: bool = False,
    restarts: int = 0,
    seed: int = 0,
    max_steps: int | None = None,
    profile: ConflictProfile | None = None,
    context: "PipelineContext | None" = None,
    strategy: "str | SearchStrategy" = "steepest",
) -> OptimizationResult:
    """Construct and verify an application-specific index function.

    Parameters
    ----------
    trace:
        The application's memory-access trace.
    geometry:
        Target cache (must be direct mapped or set associative; the
        paper evaluates direct-mapped caches).
    family:
        Function family: ``"1-in"``/``"2-in"``/``"4-in"``/``"16-in"``
        (permutation-based, as in Table 2), ``"general"``, or a
        :class:`~repro.search.families.FunctionFamily` instance.
    n:
        Number of hashed block-address bits (paper: 16).
    guard:
        Apply the paper's Sec. 6 safeguard: if the optimized function
        *adds* misses, revert to conventional indexing.
    restarts:
        Extra random hill-climb starts (0 = the paper's single start).
    profile:
        Reuse a precomputed conflict profile (it only depends on the
        trace and the cache capacity, not on the family searched).
    context:
        Pipeline session whose artifact cache backs the profile, the
        exact simulations and the whole result (``None`` runs on a
        fresh cache-less context).  A cached result is bit-identical to
        recomputing it.
    strategy:
        Search strategy — a spec string (``"steepest"``,
        ``"first-improvement"``, ``"beam:4"``, ``"anneal"``) or any
        :class:`~repro.search.strategies.SearchStrategy` instance.  The
        default is the paper's steepest descent
        (:class:`~repro.search.strategies.SteepestDescent`); see
        :mod:`repro.search.strategies` for when the alternatives pay
        off.
    """
    m = geometry.index_bits
    if m > n:
        raise SpecError(
            f"geometry needs m={m} index bits but only n={n} are hashed; "
            f"raise n to at least {m} or shrink the cache"
        )
    # The record key needs only the family's and the strategy's names,
    # so a served result never builds either.
    if isinstance(family, str):
        try:
            family_key = family_name(family, n)
        except ValueError as error:
            raise SpecError(str(error)) from None
    else:
        if family.n != n or family.m != m:
            raise SpecError(
                f"family is sized for (n={family.n}, m={family.m}), "
                f"expected (n={n}, m={m})"
            )
        family_key = family.name
    if isinstance(strategy, str):
        try:
            strategy_key, deterministic = strategy_identity(strategy)
        except ValueError as error:
            raise SpecError(str(error)) from None
    else:
        from repro.search.strategies import strategy_for_name

        strategy = strategy_for_name(strategy)
        strategy_key, deterministic = strategy.name, strategy.deterministic
    ctx = context if context is not None else PipelineContext()
    if profile is None:
        profile = ctx.profile(trace, geometry, n)
    # A deterministic single-start search does not depend on the seed,
    # so normalize it out of the record key and let every seed share
    # the artifact.  Non-deterministic strategies (annealing) seed
    # their own walk, so the seed stays in.
    key_seed = seed if (restarts > 0 or not deterministic) else 0
    params = {
        "trace": trace.digest,
        "geometry": geometry_params(geometry),
        "family": family_key,
        "n": n,
        "guard": guard,
        "restarts": restarts,
        "seed": key_seed,
        "max_steps": max_steps,
        "profile": profile.digest,
    }
    # The paper's steepest descent is keyed without a strategy
    # component so records written before strategies existed stay
    # valid; every other strategy gets its own key space.
    if strategy_key != "steepest":
        params["strategy"] = strategy_key
    key = stable_key("optimization", params)

    def load(cache, key: str) -> OptimizationResult | None:
        payload = cache.load_json("optimization", key)
        return None if payload is None else _from_record(payload, trace, geometry, profile)

    def compute(missing: list[str]):
        from repro.search.families import family_for_name
        from repro.search.strategies import strategy_for_name

        result = _optimize(
            ctx, trace, geometry,
            family_for_name(family, n, m) if isinstance(family, str) else family,
            n, guard, restarts, seed, max_steps, profile,
            strategy_for_name(strategy),
        )
        return [(key, result)]

    # Unmemoized: a second ask in the session reads the record again,
    # and that counted hit is what tells a replay it was served.
    return ctx.stage(
        "optimization",
        [key],
        compute,
        load,
        lambda cache, key, result: cache.store_json("optimization", key, _record(result)),
        memo=False,
    )[key]


def profile_spec(
    context: PipelineContext,
    spec: "ExperimentSpec",
    execution: "ExecutionSpec | None" = None,
    capacities: tuple[int, ...] = (),
) -> tuple[Trace, ConflictProfile]:
    """The first half of :func:`run_spec`: the spec's trace and its
    conflict profile, profiled as ``execution`` (default: the spec's)
    says, together with ``capacities`` (see
    :meth:`PipelineContext.profile`)."""
    execution = execution or spec.execution
    trace = context.trace(spec.trace)
    profile = context.profile(
        trace,
        spec.geometry.resolve(),
        spec.search.n,
        shard_size=execution.shard_size,
        workers=execution.workers,
        retries=execution.retries,
        task_timeout=execution.task_timeout,
        on_error=execution.on_error,
        capacities=capacities,
    )
    return trace, profile


def run_spec(
    context: PipelineContext,
    spec: "ExperimentSpec",
    execution: "ExecutionSpec | None" = None,
    capacities: tuple[int, ...] = (),
) -> tuple[Trace, OptimizationResult]:
    """The one spec runner, behind ``Session.optimize``,
    ``Session.profile`` and every campaign cell: trace and profile
    (:func:`profile_spec`), then search and exact verification, all
    with this thread pinned to ``execution.backend``, which the result
    records.  The backend choice is validated before any stage runs."""
    from repro.backend import use_backend

    execution = execution or spec.execution
    search = spec.search
    with use_backend(execution.backend) as backend:
        trace, profile = profile_spec(context, spec, execution, capacities)
        result = optimize_for_trace(
            trace,
            spec.geometry.resolve(),
            family=search.family,
            n=search.n,
            guard=search.guard,
            restarts=search.restarts,
            seed=search.seed,
            max_steps=search.max_steps,
            profile=profile,
            context=context,
            strategy=search.strategy,
        )
    result.backend = backend.name
    return trace, result


def _record(result: OptimizationResult) -> dict[str, Any]:
    """The cached record of a result: everything but the profile, which
    the reader already holds (it is cached separately and part of the
    key)."""
    search = result.search
    return {
        "trace_name": result.trace_name,
        "family_name": result.family_name,
        "function": function_to_json(result.hash_function),
        "baseline": stats_to_json(result.baseline),
        "optimized": stats_to_json(result.optimized),
        "search": {
            "function": function_to_json(search.function),
            "estimated_misses": search.estimated_misses,
            "start_misses": search.start_misses,
            "steps": search.steps,
            "evaluations": search.evaluations,
            "seconds": search.seconds,
            "history": list(search.history),
            "family_name": search.family_name,
            "strategy_name": search.strategy_name,
            # Exact-search provenance: stored only when present so
            # pre-existing heuristic records stay readable and
            # byte-stable.
            **(
                {
                    "certified": search.certified,
                    "optimality_gap": search.optimality_gap,
                    "nodes_expanded": search.nodes_expanded,
                    "nodes_pruned": search.nodes_pruned,
                }
                if search.certified
                or search.optimality_gap is not None
                or search.nodes_expanded
                or search.nodes_pruned
                else {}
            ),
        },
        "reverted": result.reverted,
    }


def _from_record(
    payload: dict, trace: Trace, geometry: CacheGeometry, profile: ConflictProfile
) -> OptimizationResult:
    search = payload["search"]
    gap = search.get("optimality_gap")
    return OptimizationResult(
        # The record may have been written by a different-named trace
        # with identical content (digests ignore provenance);
        # recomputing would label the result with *this* trace.
        trace_name=trace.name,
        geometry=geometry,
        family_name=payload["family_name"],
        hash_function=function_from_json(payload["function"]),
        baseline=stats_from_json(payload["baseline"]),
        optimized=stats_from_json(payload["optimized"]),
        search=SearchResult(
            function=function_from_json(search["function"]),
            estimated_misses=int(search["estimated_misses"]),
            start_misses=int(search["start_misses"]),
            steps=int(search["steps"]),
            evaluations=int(search["evaluations"]),
            seconds=float(search["seconds"]),
            history=[int(h) for h in search["history"]],
            family_name=search["family_name"],
            strategy_name=search.get("strategy_name", "steepest"),
            certified=bool(search.get("certified", False)),
            optimality_gap=None if gap is None else int(gap),
            nodes_expanded=int(search.get("nodes_expanded", 0)),
            nodes_pruned=int(search.get("nodes_pruned", 0)),
        ),
        profile=profile,
        reverted=bool(payload["reverted"]),
        trace_digest=trace.digest,
        profile_digest=profile.digest,
    )


def _optimize(
    ctx: PipelineContext,
    trace: Trace,
    geometry: CacheGeometry,
    family: FunctionFamily,
    n: int,
    guard: bool,
    restarts: int,
    seed: int,
    max_steps: int | None,
    profile: ConflictProfile,
    strategy: "SearchStrategy",
) -> OptimizationResult:
    """The profile -> hill climb -> exact verification flow itself."""
    from repro.search.hill_climb import hill_climb_front, hill_climb_restarts

    baseline = ctx.baseline(trace, geometry)
    if restarts > 0:
        # Multi-start: exact-verify the whole front of local optima
        # and keep the *simulated* winner
        # (the Eq. 4 estimate only ranks candidates approximately).
        front = hill_climb_front(
            profile, family, restarts=restarts, seed=seed, max_steps=max_steps,
            strategy=strategy,
        )
        front_stats = ctx.evaluate_many(
            trace, geometry, [result.function for result in front]
        )
        search, optimized = min(
            zip(front, front_stats),
            key=lambda pair: (pair[1].misses, pair[0].estimated_misses),
        )
        # Report vs the conventional start without touching the front
        # member (results are frozen and may alias cached artifacts).
        search = search.with_start(front[0].start_misses)
    else:
        search = hill_climb_restarts(
            profile, family, restarts=restarts, seed=seed, max_steps=max_steps,
            strategy=strategy,
        )
        optimized = ctx.evaluate(trace, geometry, search.function)

    chosen = search.function
    reverted = False
    if guard and optimized.misses > baseline.misses:
        chosen = XorHashFunction.modulo(n, geometry.index_bits)
        optimized = baseline
        reverted = True

    return OptimizationResult(
        trace_name=trace.name,
        geometry=geometry,
        family_name=family.name,
        hash_function=chosen,
        baseline=baseline,
        optimized=optimized,
        search=search,
        profile=profile,
        reverted=reverted,
        trace_digest=trace.digest,
        profile_digest=profile.digest,
    )

"""The ``Session`` facade: one object that runs any spec.

A :class:`Session` owns the execution environment — artifact cache,
worker count — and consumes declarative :class:`ExperimentSpec`\\ s:

* :meth:`Session.optimize` runs one spec end to end (profile ->
  estimate -> search -> exact verification) and returns an
  :class:`~repro.core.optimizer.OptimizationResult` with the spec
  attached, so ``result.to_json()`` is a complete replayable report;
* :meth:`Session.campaign` runs a list of specs through the parallel
  campaign runner, every task reading and writing the session's
  artifact cache;
* :meth:`Session.sweep` expands a grid dictionary into the spec
  cross-product and runs it as a campaign.

Every spec runs through one runner,
:func:`~repro.core.optimizer.run_spec` (trace, profile, then search and
exact verification on the spec's compute backend), and every run —
campaigns included — reads and writes the session's own context: its
cache directory, storage backend and cache counters.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.api.errors import SpecError
from repro.api.spec import (
    ExecutionSpec,
    ExperimentSpec,
    GeometrySpec,
    SearchSpec,
    TraceSpec,
)
from repro.names import WORKLOADS
from repro.pipeline.context import PipelineContext

if TYPE_CHECKING:
    from repro.pipeline.campaign import CampaignResult

__all__ = ["Session", "expand_grid"]

SpecLike = ExperimentSpec | Mapping | str | Path


#: Grid keys :func:`expand_grid` sweeps over (lists) or fixes (scalars).
_GRID_AXES = ("benchmarks", "kinds", "cache_bytes", "families", "strategies")
_GRID_SCALARS = (
    "suite",
    "scale",
    "block_size",
    "associativity",
    "n",
    "workload_seed",
    "search_seed",
    "guard",
    "restarts",
    "max_steps",
)


def expand_grid(grid: Mapping[str, Any]) -> list[ExperimentSpec]:
    """Expand a grid dictionary into the spec cross-product.

    Axes (lists): ``benchmarks`` (default: the whole suite), ``kinds``,
    ``cache_bytes``, ``families``, ``strategies``.  Scalars fix one
    value for every cell: ``suite``, ``scale``, ``block_size``,
    ``associativity``, ``n``, ``workload_seed``, ``search_seed``,
    ``guard``, ``restarts``, ``max_steps``.
    """
    unknown = sorted(set(grid) - set(_GRID_AXES) - set(_GRID_SCALARS))
    if unknown:
        raise SpecError(
            f"unknown grid key {unknown[0]!r}; axes: {', '.join(_GRID_AXES)}; "
            f"scalars: {', '.join(_GRID_SCALARS)}"
        )
    suite = grid.get("suite", "mibench")
    benchmarks = grid.get("benchmarks")
    if benchmarks is None:
        if suite not in WORKLOADS:
            raise SpecError(
                f"unknown suite {suite!r}; choose from {sorted(WORKLOADS)}",
                field="suite",
            )
        benchmarks = WORKLOADS[suite]
    search_fixed = dict(
        n=grid.get("n", SearchSpec().n),
        guard=grid.get("guard", False),
        restarts=grid.get("restarts", 0),
        seed=grid.get("search_seed", 0),
        max_steps=grid.get("max_steps"),
    )
    return [
        ExperimentSpec(
            trace=TraceSpec(
                suite=suite,
                benchmark=benchmark,
                kind=kind,
                scale=grid.get("scale", "small"),
                seed=grid.get("workload_seed", 0),
            ),
            geometry=GeometrySpec(
                cache_bytes=cache_bytes,
                block_size=grid.get("block_size", 4),
                associativity=grid.get("associativity", 1),
            ),
            search=SearchSpec(
                family=family, strategy=strategy, **search_fixed
            ),
        )
        for benchmark in benchmarks
        for kind in grid.get("kinds", ("data",))
        for cache_bytes in grid.get("cache_bytes", (1024, 4096, 16384))
        for family in grid.get("families", ("2-in",))
        for strategy in grid.get("strategies", ("steepest",))
    ]


class Session:
    """Execution environment for declarative experiments.

    Parameters
    ----------
    cache_dir:
        Artifact-cache directory shared by every run in the session;
        ``None`` keeps the session in-memory (specs may still name
        their own ``execution.cache_dir``, which then applies).
    workers:
        Default process count for campaigns and sweeps (``None`` lets
        each run pick: serial for single experiments, one per core for
        grids).  Explicit session settings win over a spec's
        ``execution`` table.
    storage:
        Artifact-cache byte-store backend name (``"local"``,
        ``"sqlite"``; ``None`` resolves automatically — see
        :func:`repro.pipeline.storage.resolve_storage`).

    A session is a context manager: ``with Session(...) as s: ...``
    deterministically releases cache backends and any pooled executors
    adopted via :meth:`adopt` on exit (long-lived embedders — e.g. the
    ``repro serve`` front end — call :meth:`close` explicitly).
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        workers: int | None = None,
        storage: str | None = None,
    ):
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.workers = workers
        self.storage = storage
        self._contexts: dict[str | None, PipelineContext] = {}
        self._adopted: list[Any] = []
        self._closed = False

    # -- environment -------------------------------------------------------

    def context(self, cache_dir: str | None = None) -> PipelineContext:
        """The session's pipeline context (memoized per cache dir)."""
        root = cache_dir if cache_dir is not None else self.cache_dir
        ctx = self._contexts.get(root)
        if ctx is None:
            ctx = PipelineContext(root, storage=self.storage)
            self._contexts[root] = ctx
        return ctx

    # -- lifecycle ---------------------------------------------------------

    def adopt(self, resource: Any) -> Any:
        """Tie ``resource``'s shutdown to the session's :meth:`close`.

        Anything with a ``shutdown(wait=True)`` (executor pools) or
        ``close()`` method qualifies; resources are released in reverse
        adoption order.  Returns ``resource`` for chaining.
        """
        self._adopted.append(resource)
        return resource

    def close(self) -> None:
        """Deterministically release everything the session owns.

        Shuts down adopted executors (waiting for in-flight work),
        closes every pipeline context's cache backend, and leaves the
        session reusable only for stats inspection.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for resource in reversed(self._adopted):
            shutdown = getattr(resource, "shutdown", None)
            if callable(shutdown):
                shutdown(wait=True)
            else:
                resource.close()
        self._adopted.clear()
        for ctx in self._contexts.values():
            ctx.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def backends(self) -> list[dict]:
        """Compute-backend status: one row per registered backend.

        Rows come from :func:`repro.backend.backend_status` — ``name``,
        ``available``, ``active``, ``priority``, ``description`` — where
        *active* reflects the current resolution (``use_backend``
        override, then ``REPRO_BACKEND``, then best available).  A
        spec's ``execution.backend`` pins the choice per run instead.
        """
        from repro.backend import backend_status

        return backend_status()

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Artifact-cache counters summed over the session's contexts.

        Every per-kind bucket carries the full event set — ``hits``,
        ``misses``, ``stores`` and ``quarantined`` — zero-filled, so
        consumers (the ``/v1/stats`` endpoint, dashboards) can read the
        self-healing counter without guarding for its absence.
        """
        totals: dict[str, dict[str, int]] = {}
        for ctx in self._contexts.values():
            for kind, per_kind in ctx.cache_stats().items():
                bucket = totals.setdefault(
                    kind, {"hits": 0, "misses": 0, "stores": 0, "quarantined": 0}
                )
                for event, count in per_kind.items():
                    bucket[event] = bucket.get(event, 0) + count
        return totals

    def _environment(
        self, execution: ExecutionSpec
    ) -> tuple[PipelineContext, ExecutionSpec]:
        """The context and execution a run gets: the session's cache
        directory and worker count win over ``execution``'s."""
        root = self.cache_dir if self.cache_dir is not None else execution.cache_dir
        if self.workers is not None:
            execution = replace(execution, workers=self.workers)
        return self.context(root), execution

    def _campaign_execution(self, specs: list[ExperimentSpec]) -> ExecutionSpec:
        """One execution environment for a whole campaign.

        A campaign runs through one cache directory and one pool, so
        specs that *would* decide these (the session's own settings
        override them) must agree — silently adopting the first spec's
        environment for the others would write artifacts where nobody
        asked.
        """
        if not specs:
            return ExecutionSpec()
        if self.cache_dir is None:
            dirs = {spec.execution.cache_dir for spec in specs}
            if len(dirs) > 1:
                raise SpecError(
                    f"campaign specs disagree on execution.cache_dir "
                    f"({', '.join(sorted(map(repr, dirs)))}); align them or "
                    "set Session(cache_dir=...) to override",
                    field="execution.cache_dir",
                )
        if self.workers is None:
            workers = {spec.execution.workers for spec in specs}
            if len(workers) > 1:
                raise SpecError(
                    f"campaign specs disagree on execution.workers "
                    f"({', '.join(sorted(map(repr, workers)))}); align them or "
                    "set Session(workers=...) to override",
                    field="execution.workers",
                )
        # The resilience policy is likewise one per campaign: a pool
        # cannot retry some rows under one budget and others under
        # another without the row order becoming policy-dependent.  So
        # are the shard size every cell profiles with and the compute
        # backend every cell runs on.
        for name in ("retries", "task_timeout", "on_error", "shard_size", "backend"):
            values = {getattr(spec.execution, name) for spec in specs}
            if len(values) > 1:
                raise SpecError(
                    f"campaign specs disagree on execution.{name} "
                    f"({', '.join(sorted(map(repr, values)))}); align them",
                    field=f"execution.{name}",
                )
        return specs[0].execution

    # -- running specs -----------------------------------------------------

    def profile(self, spec: SpecLike):
        """Compute (or load) the spec's conflict profile.

        The profiling-only entry point: resolves the trace (registry or
        file-backed — a ``.bin`` path opens memory-mapped), profiles it
        for the spec's geometry and window, and returns the
        :class:`~repro.profiling.ConflictProfile`.  With
        ``execution.shard_size`` set the trace is profiled shard by
        shard, out of core (parallel over ``execution.workers``,
        resumable through the session cache); call
        :func:`~repro.profiling.run_sharded_profile` with
        ``context=session.context()`` for the per-shard execution
        statistics.
        """
        from repro.core.optimizer import profile_spec

        spec = ExperimentSpec.coerce(spec)
        context, execution = self._environment(spec.execution)
        return profile_spec(context, spec, execution)[1]

    def optimize(self, spec: SpecLike):
        """Run one experiment spec end to end.

        Accepts a spec object, a spec dictionary, or a path to a
        TOML/JSON spec file.  Returns the
        :class:`~repro.core.optimizer.OptimizationResult` with the spec
        attached (``result.spec``), so ``result.to_json()`` embeds it.
        """
        from repro.backend import degradation_events
        from repro.core.optimizer import run_spec

        spec = ExperimentSpec.coerce(spec)
        context, execution = self._environment(spec.execution)
        seen_degradations = len(degradation_events())
        trace, result = run_spec(context, spec, execution)
        result.spec = spec
        result.trace_digest = trace.digest
        # Kernel degradations during this run (e.g. a JIT failure that
        # fell back to NumPy) surface in the report's environment.
        result.warnings = list(degradation_events()[seen_degradations:])
        return result

    def campaign(
        self,
        specs: Iterable[SpecLike],
        base_seed: int = 0,
        keep_details: bool = False,
        derive_seeds: bool = False,
    ) -> CampaignResult:
        """Run many specs through the parallel campaign runner.

        By default every spec runs with its own search seed, so results
        (and cached artifacts) are identical to running each spec
        through :meth:`optimize` — the campaign only changes *how* the
        work executes, never what it computes.  With
        ``derive_seeds=True`` each cell instead gets a distinct seed
        derived from its identity and ``base_seed`` (see
        :func:`~repro.pipeline.campaign.derive_seed`; classic grid
        semantics: independent of worker count and scheduling,
        different per cell), written into its spec before dispatch, so
        the report rows carry the seed that actually ran.
        """
        from repro.pipeline.campaign import derive_seed, run_campaign

        specs = [ExperimentSpec.coerce(spec) for spec in specs]
        execution = self._campaign_execution(specs)
        if derive_seeds:
            specs = [
                replace(
                    spec, search=replace(spec.search, seed=derive_seed(spec, base_seed))
                )
                for spec in specs
            ]
        result = run_campaign(
            specs, *self._environment(execution), keep_details=keep_details
        )
        result.base_seed = base_seed
        return result

    def sweep(
        self,
        grid: Mapping[str, Any],
        base_seed: int = 0,
        keep_details: bool = False,
        derive_seeds: bool = False,
    ) -> CampaignResult:
        """Expand a grid dictionary (see :func:`expand_grid`) and run it."""
        return self.campaign(
            expand_grid(grid),
            base_seed=base_seed,
            keep_details=keep_details,
            derive_seeds=derive_seeds,
        )

    def __repr__(self) -> str:
        return f"Session(cache_dir={self.cache_dir!r}, workers={self.workers!r})"

"""Parallel campaign execution over lists of experiment specs.

A *campaign* is the unit of production work: every (workload, cache
geometry, function family) cell of an experiment grid is one
:class:`~repro.api.spec.ExperimentSpec` (see
:func:`repro.api.expand_grid`), cells fan out over a process pool, and
every cell reads and writes the shared content-addressed artifact
cache.  A warm replay of a finished campaign therefore touches no
simulator at all — it only loads artifacts
(``benchmarks/bench_pipeline.py`` holds the >= 5x floor on exactly
that).

Each cell runs with its spec's own search seed.  Grid semantics —
a distinct seed per cell — come from :func:`derive_seed`, which hashes
the cell's identity with a base seed, so results do not depend on
worker count, scheduling order, or which process picks a cell up.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.api.errors import SpecError
from repro.api.spec import ExecutionSpec, ExperimentSpec
from repro.pipeline.context import PipelineContext
from repro.pipeline.faults import maybe_inject
from repro.pipeline.resilience import TaskOutcome, run_resilient
from repro.pipeline.runtime import current_context, use_context

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.optimizer import OptimizationResult

__all__ = [
    "CampaignRow",
    "CampaignResult",
    "derive_seed",
    "fault_key",
    "run_campaign",
    "format_campaign",
]


def _identity(spec: ExperimentSpec) -> str:
    t, g, s = spec.trace, spec.geometry, spec.search
    return (
        f"{t.suite}/{t.benchmark}/{t.kind}/{t.scale}/"
        f"{g.cache_bytes}/{g.block_size}/{s.family}/{s.n}/{t.seed}"
    )


def derive_seed(spec: ExperimentSpec, base_seed: int) -> int:
    """Deterministic per-cell search seed, independent of execution
    order and worker placement."""
    ident = _identity(spec)
    # Default-steepest cells keep their pre-strategy identity so
    # previously derived seeds (and the artifacts keyed by them) stay
    # valid; every other strategy (and any non-default associativity)
    # gets its own seed space.
    if spec.search.strategy != "steepest":
        ident += f"/{spec.search.strategy}"
    if spec.geometry.associativity != 1:
        ident += f"/a{spec.geometry.associativity}"
    digest = hashlib.sha256(ident.encode()).digest()
    return (base_seed + int.from_bytes(digest[:4], "big")) & 0x7FFFFFFF


def fault_key(spec: ExperimentSpec) -> str:
    """Stable identity string for fault-injection draws.

    Covers every identity field but the search seed, so a plan faults
    the same cells of a grid regardless of cell order, worker count, or
    base seed.
    """
    return (
        f"{_identity(spec)}/{spec.search.strategy}/a{spec.geometry.associativity}"
    )


@dataclass
class CampaignRow:
    """Result of one cell, light enough to ship back from a worker."""

    #: The spec that ran (default ``execution``; its seed is the one used).
    spec: ExperimentSpec
    base_misses: int = 0
    optimized_misses: int = 0
    base_misses_per_kuop: float = 0.0
    removed_percent: float = 0.0
    accesses: int = 0
    uops: int = 0
    seconds: float = 0.0
    cache_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Full :class:`OptimizationResult`, present only with
    #: ``keep_details=True``.
    result: "OptimizationResult | None" = None
    #: ``"ok"``, or ``"failed"`` for a task that exhausted its retry
    #: budget under ``on_error="skip"`` (metrics above are then zero).
    status: str = "ok"
    #: Last error message of a failed task (``None`` when ok).
    error: str | None = None
    #: Execution attempts the task took (1 on a clean first run).  Only
    #: serialized for failed rows, so a retried-but-healed run's report
    #: stays bit-identical to a fault-free run's.
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def search_seed(self) -> int:
        return self.spec.search.seed

    def to_json(self) -> dict:
        """The row's ``repro-report/v1`` payload (spec echoed inside)."""
        from repro.api.report import row_report

        return row_report(self)

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignRow":
        from repro.api.report import row_from_report

        return row_from_report(payload)


@dataclass
class CampaignResult:
    """All rows of a campaign plus execution metadata."""

    rows: list[CampaignRow]
    workers: int
    cache_dir: str | None
    seconds: float
    base_seed: int = 0

    def cache_totals(self) -> dict[str, int]:
        """Summed artifact-cache counters across every task."""
        totals = {"hits": 0, "misses": 0, "stores": 0}
        for row in self.rows:
            for per_kind in row.cache_stats.values():
                for event, count in per_kind.items():
                    # Events beyond the standard three (e.g. the
                    # self-healing cache's "quarantined") appear lazily.
                    totals[event] = totals.get(event, 0) + count
        return totals

    @property
    def failed_rows(self) -> list[CampaignRow]:
        """Rows whose task exhausted its budget (``on_error="skip"``)."""
        return [row for row in self.rows if not row.ok]

    @property
    def fully_cached(self) -> bool:
        """True when no artifact had to be (re)computed.

        Always ``False`` for purely in-memory runs (without an artifact
        cache, every task computed from scratch even though there are
        no cache counters to show it) and for empty campaigns (zero
        tasks verify nothing).
        """
        if self.cache_dir is None or not self.rows:
            return False
        totals = self.cache_totals()
        return totals["misses"] == 0 and totals["stores"] == 0

    def to_json(self) -> dict:
        """The campaign's ``repro-report/v1`` payload.

        Every row echoes its :class:`~repro.api.spec.ExperimentSpec`
        (with the search seed the run actually used), so a campaign
        report is a replayable input:
        ``Session.campaign(specs_from_report(payload))`` re-runs it —
        and, with a shared cache, entirely from artifacts.
        """
        from repro.api.report import campaign_report

        return campaign_report(self)

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignResult":
        """Rebuild a campaign summary from its :meth:`to_json` payload."""
        from repro.api.report import campaign_from_report

        return campaign_from_report(payload)


# One context per worker process, created lazily on the first task and
# reused for the rest: the in-memory memo then dedups e.g. one conflict
# profile shared by every family of a benchmark within that worker.
_worker_context: PipelineContext | None = None
_worker_cache_dir: str | None = None


def _init_worker(cache_dir: str | None) -> None:
    global _worker_context, _worker_cache_dir
    _worker_cache_dir = cache_dir
    _worker_context = PipelineContext(cache_dir)


def _counters_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    delta: dict[str, dict[str, int]] = {}
    for kind, per_kind in after.items():
        base = before.get(kind, {})
        changed = {
            event: count - base.get(event, 0)
            for event, count in per_kind.items()
            if count - base.get(event, 0)
        }
        if changed:
            delta[kind] = changed
    return delta


def _resolve_execution(
    cache_dir: str | Path | None, workers: int | None, count: int
) -> tuple[str | None, int, PipelineContext]:
    """Shared cache-dir/worker/context resolution for both executors.

    The explicit ``cache_dir`` wins; otherwise the ambient context's
    cache is adopted so nested campaigns share the session's artifacts.
    At most one item runs serially (``workers`` 1).  The returned
    context is for *serial* execution: the ambient context is reused
    only when it is backed by the resolved directory, else a fresh
    session is created (never silently writing elsewhere).
    """
    ambient = current_context()
    if cache_dir is None and ambient is not None and ambient.cache is not None:
        cache_dir = ambient.cache.root
    cache_dir = str(cache_dir) if cache_dir is not None else None
    if workers is None:
        workers = min(count, os.cpu_count() or 1) or 1
    workers = 1 if count <= 1 else max(1, workers)
    ambient_root = (
        str(ambient.cache.root)
        if ambient is not None and ambient.cache is not None
        else None
    )
    if ambient is not None and cache_dir == ambient_root:
        serial_context = ambient
    else:
        serial_context = PipelineContext(cache_dir)
    return cache_dir, workers, serial_context


def _run_task(
    spec: ExperimentSpec,
    cache_dir: str | None,
    keep_details: bool,
    context: PipelineContext | None = None,
) -> CampaignRow:
    """Execute one cell (top level so the process pool can pickle it)."""
    from repro.core.optimizer import optimize_for_trace

    # Injected before any side effects (cache reads, memo fills): a
    # retried attempt then redoes exactly what a clean first attempt
    # would have, keeping fault-injected reports bit-identical.
    maybe_inject("campaign.task", fault_key(spec))
    global _worker_context
    if context is None:
        if _worker_context is None or _worker_cache_dir != cache_dir:
            _init_worker(cache_dir)
        context = _worker_context
    assert context is not None
    before = context.cache_stats()
    t0 = time.perf_counter()
    # The same spec-to-inputs mapping Session.optimize uses.
    trace = spec.trace.resolve()
    geometry = spec.geometry.resolve()
    result = optimize_for_trace(
        trace,
        geometry,
        family=spec.search.resolve_family(geometry.index_bits),
        n=spec.search.n,
        guard=spec.search.guard,
        restarts=spec.search.restarts,
        seed=spec.search.seed,
        max_steps=spec.search.max_steps,
        context=context,
        strategy=spec.search.strategy,
    )
    seconds = time.perf_counter() - t0
    return CampaignRow(
        spec=spec,
        base_misses=result.baseline.misses,
        optimized_misses=result.optimized.misses,
        base_misses_per_kuop=result.base_misses_per_kuop(trace.uops),
        removed_percent=result.removed_percent,
        accesses=result.baseline.accesses,
        uops=trace.uops,
        seconds=seconds,
        cache_stats=_counters_delta(before, context.cache_stats()),
        result=result if keep_details else None,
    )


def _rows_from_outcomes(
    specs: Sequence[ExperimentSpec], outcomes: Sequence[TaskOutcome]
) -> list[CampaignRow]:
    """Turn executor outcomes into rows, one per spec, in spec order."""
    rows = []
    for spec, outcome in zip(specs, outcomes):
        if outcome.ok:
            row = outcome.value
            row.attempts = outcome.attempts
        else:
            row = CampaignRow(
                spec=spec,
                status="failed",
                error=outcome.error,
                attempts=outcome.attempts,
            )
        rows.append(row)
    return rows


def _cell(spec: ExperimentSpec) -> ExperimentSpec:
    """The spec as a campaign row echoes it: a registry cell with the
    default ``execution`` (one campaign has one execution)."""
    if spec.trace.path is not None:
        raise SpecError(
            "file-backed traces run through Session.optimize / "
            "Session.profile; campaign grids are registry-workload cells",
            field="trace.path",
        )
    return replace(spec, execution=ExecutionSpec())


def run_campaign(
    specs: Sequence[ExperimentSpec],
    cache_dir: str | Path | None = None,
    workers: int | None = None,
    keep_details: bool = False,
    retries: int = 0,
    task_timeout: float | None = None,
    on_error: str = "raise",
) -> CampaignResult:
    """Run a spec grid through the artifact cache, fanning out on cores.

    Parameters
    ----------
    specs:
        The grid (see :func:`repro.api.expand_grid`); each cell runs
        with its own search seed, and row order follows spec order
        regardless of scheduling.  Only registry workloads qualify
        (file-backed traces raise :class:`SpecError`); the specs'
        ``execution`` tables are ignored — pass the execution
        environment here.
    cache_dir:
        Artifact-cache directory shared by all workers.  Defaults to
        the ambient pipeline context's cache (if one is active); pass
        ``None`` with no ambient context for a purely in-memory run.
    workers:
        Process count; ``None`` picks ``min(len(specs), cpu_count)``,
        and ``0``/``1`` runs serially in-process (no pool, useful under
        pytest and for deterministic timing baselines).
    keep_details:
        Attach the full :class:`OptimizationResult` to each row (the
        table drivers need it; costs pickling the conflict profile back
        from each worker).
    retries:
        Failed-attempt budget per cell (exceptions, timeouts, worker
        deaths); retried with exponential backoff + deterministic
        jitter.  Digest-neutral: retried runs replay from the same
        artifacts.
    task_timeout:
        Seconds before a cell attempt is failed and its worker pool
        recycled (``None`` = no limit; ignored for serial runs, which
        cannot abandon an in-process call).
    on_error:
        What to do when a cell exhausts its budget: ``"raise"`` aborts
        the campaign (default), ``"skip"`` records a failed row and
        continues, ``"retry"`` raises but guarantees a minimum retry
        budget even when ``retries`` is 0.
    """
    specs = [_cell(spec) for spec in specs]
    cache_dir, workers, serial_context = _resolve_execution(
        cache_dir, workers, len(specs)
    )

    t0 = time.perf_counter()
    # Without a cache the pool workers' memos would be private and a
    # benchmark's per-family cells — scattered across the pool — would
    # each recompute the shared profile/baseline.  A run-scoped
    # temporary artifact dir restores the sharing; the result still
    # reports an in-memory run (cache_dir None).  Serial runs share one
    # context, so its memo already spans cells.
    ephemeral = (
        tempfile.TemporaryDirectory(prefix="repro-campaign-")
        if cache_dir is None and workers > 1
        else None
    )
    task_cache_dir = ephemeral.name if ephemeral is not None else cache_dir
    try:
        outcomes = run_resilient(
            functools.partial(
                _run_task,
                cache_dir=task_cache_dir,
                keep_details=keep_details,
                context=serial_context if workers == 1 else None,
            ),
            specs,
            workers=workers,
            retries=retries,
            task_timeout=task_timeout,
            on_error=on_error,
            initializer=_init_worker,
            initargs=(task_cache_dir,),
        )
    finally:
        if ephemeral is not None:
            ephemeral.cleanup()
    return CampaignResult(
        rows=_rows_from_outcomes(specs, outcomes),
        workers=workers,
        cache_dir=cache_dir,
        seconds=time.perf_counter() - t0,
    )


def _call_with_context(fn, item):
    """Invoke ``fn(item)`` with the worker's pipeline context ambient."""
    with use_context(_worker_context):
        return fn(item)


def map_with_context(
    fn,
    items: Sequence,
    cache_dir: str | Path | None = None,
    workers: int | None = 1,
    retries: int = 0,
    task_timeout: float | None = None,
    on_error: str = "raise",
):
    """``[fn(item) for item in items]`` with a pipeline context active.

    The generic sibling of :func:`run_campaign` for drivers whose rows
    are not plain (benchmark, geometry, family) cells — e.g. Table 3's
    exhaustive-optimum column and the sharded profiler.  ``fn`` must be
    picklable (a top-level function or :func:`functools.partial` of
    one) when ``workers > 1``.  Result order follows ``items``; the
    resilience knobs match :func:`run_campaign` (under
    ``on_error="skip"`` a failed item's result is ``None``).
    """
    items = list(items)
    cache_dir, workers, serial_context = _resolve_execution(
        cache_dir, workers, len(items)
    )
    with use_context(serial_context):
        outcomes = run_resilient(
            fn if workers == 1 else functools.partial(_call_with_context, fn),
            items,
            workers=workers,
            retries=retries,
            task_timeout=task_timeout,
            on_error=on_error,
            initializer=_init_worker,
            initargs=(cache_dir,),
        )
    return [outcome.value for outcome in outcomes]


def format_campaign(result: CampaignResult) -> str:
    """Plain-text campaign report in the package's table style."""
    # Imported here: the experiments package itself imports repro.core,
    # which consults the pipeline runtime — a module-level import would
    # be circular.
    from repro.experiments.common import format_table

    rows = [
        [
            row.spec.trace.label,
            row.spec.trace.kind,
            f"{row.spec.geometry.cache_bytes // 1024}KB",
            row.spec.search.family,
            row.base_misses_per_kuop,
            row.removed_percent,
            f"{row.seconds:.2f}s" if row.ok else "FAILED",
        ]
        for row in result.rows
    ]
    totals = result.cache_totals()
    failed = len(result.failed_rows)
    footer = (
        f"{len(result.rows)} tasks"
        + (f" ({failed} FAILED)" if failed else "")
        + f", {result.workers} worker(s), "
        f"{result.seconds:.2f}s wall; cache: {totals['hits']} hits, "
        f"{totals['misses']} misses, {totals['stores']} stores"
        + (f" @ {result.cache_dir}" if result.cache_dir else " (in-memory)")
    )
    return (
        format_table(
            ["workload", "kind", "cache", "family", "base m/Kuop", "removed %", "time"],
            rows,
            title="Campaign results",
        )
        + "\n"
        + footer
    )

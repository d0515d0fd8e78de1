"""Parallel campaign execution over lists of experiment specs.

A *campaign* is the unit of production work: every (workload, cache
geometry, function family) cell of an experiment grid is one
:class:`~repro.api.spec.ExperimentSpec` (see
:func:`repro.api.expand_grid`), cells fan out through the caller's
:meth:`PipelineContext.map`, and every cell reads and writes that
context's content-addressed artifact cache.  A warm replay of a
finished campaign therefore touches no simulator at all — it only
loads artifacts (``benchmarks/bench_pipeline.py`` holds the >= 5x
floor on exactly that).

Each cell runs with its spec's own search seed.  Grid semantics —
a distinct seed per cell — come from :func:`derive_seed`, which hashes
the cell's identity with a base seed, so results do not depend on
worker count, scheduling order, or which process picks a cell up.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.api.errors import SpecError
from repro.api.spec import ExecutionSpec, ExperimentSpec
from repro.pipeline.artifact_cache import cache_events, replayed
from repro.pipeline.context import PipelineContext, pool_size
from repro.pipeline.faults import maybe_inject

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.optimizer import OptimizationResult
    from repro.pipeline.resilience import TaskOutcome

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
    #: The attempt's :func:`~repro.pipeline.artifact_cache.cache_events`.
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
        """True when every row ran and
        :func:`~repro.pipeline.artifact_cache.replayed` from the cache.

        Always ``False`` for purely in-memory runs (without an artifact
        cache, every task computed from scratch even though there are
        no cache counters to show it), for empty campaigns (zero tasks
        verify nothing) and when any row failed.
        """
        return (
            self.cache_dir is not None
            and bool(self.rows)
            and all(row.ok and replayed(row.cache_stats) for row in self.rows)
        )

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


def _profile_group(spec: ExperimentSpec) -> tuple:
    """What a cell's conflict profile depends on besides its capacity."""
    return spec.trace, spec.geometry.block_size, spec.search.n


def _profile_capacities(specs: Sequence[ExperimentSpec]) -> dict[tuple, tuple[int, ...]]:
    """The capacities (in blocks) the grid profiles per profile group."""
    groups: dict[tuple, set[int]] = {}
    for spec in specs:
        capacity = spec.geometry.resolve().num_blocks
        groups.setdefault(_profile_group(spec), set()).add(capacity)
    return {group: tuple(sorted(caps)) for group, caps in groups.items()}


def _run_task(
    context: PipelineContext,
    spec: ExperimentSpec,
    execution: ExecutionSpec,
    keep_details: bool,
    profile_capacities: dict[tuple, tuple[int, ...]],
) -> CampaignRow:
    """Execute one cell on ``execution`` (top level so the process pool
    can pickle it)."""
    from repro.core.optimizer import run_spec

    # Injected before any side effects (cache reads, memo fills): a
    # retried attempt then redoes exactly what a clean first attempt
    # would have, keeping fault-injected reports bit-identical.
    maybe_inject("campaign.task", fault_key(spec))
    with cache_events() as events:
        t0 = time.perf_counter()
        # The first cell of a profile group to miss profiles every
        # capacity the grid asks of it in one pass; the others then hit.
        trace, result = run_spec(
            context,
            spec,
            execution,
            capacities=profile_capacities.get(_profile_group(spec), ()),
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
        cache_stats=events,
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
    context: PipelineContext | None = None,
    execution: ExecutionSpec = ExecutionSpec(),
    keep_details: bool = False,
) -> CampaignResult:
    """Run a spec grid through ``context``'s artifact cache, fanning
    out on cores.

    Parameters
    ----------
    specs:
        The grid (see :func:`repro.api.expand_grid`); each cell runs
        with its own search seed, and row order follows spec order
        regardless of scheduling.  Only registry workloads qualify
        (file-backed traces raise :class:`SpecError`); the specs'
        ``execution`` tables are ignored — pass the campaign's here.
    context:
        Whose cache (and storage) every cell reads and writes; ``None``
        runs purely in memory.  The campaign borrows the cache and
        never closes it.
    execution:
        ``workers`` (``None`` picks ``min(len(specs), cpu_count)``;
        ``0``/``1`` runs serially in-process, no pool), ``retries``,
        ``task_timeout`` (pool runs only), ``on_error`` (``"skip"``
        records a failed row and continues) — see
        :meth:`PipelineContext.map` — plus the ``shard_size`` each cell
        profiles with and the compute ``backend`` it runs on.  Its
        ``cache_dir`` is ignored: the context decides.
    keep_details:
        Attach the full :class:`OptimizationResult` to each row (the
        table drivers need it; costs pickling the conflict profile back
        from each worker).
    """
    specs = [_cell(spec) for spec in specs]
    cache = context.cache if context is not None else None
    workers = pool_size(execution.workers, len(specs))

    t0 = time.perf_counter()
    # Without a cache the pool workers' memos would be private and a
    # benchmark's per-family cells — scattered across the pool — would
    # each recompute the shared profile/baseline.  A run-scoped
    # temporary artifact dir restores the sharing; the result still
    # reports an in-memory run (cache_dir None).
    ephemeral = (
        tempfile.TemporaryDirectory(prefix="repro-campaign-")
        if cache is None and workers > 1
        else None
    )
    # Serial cells share a memo scoped to this run over the borrowed
    # cache, not the caller's memo: that memo has no bound yet, and
    # sharing it across the ten per-kernel Table-2 campaigns of one
    # Session raised peak RSS from 106.6 to 122.5 MB.
    runner = PipelineContext(ephemeral.name if ephemeral is not None else cache)
    try:
        outcomes = runner.map(
            partial(
                _run_task,
                # A cell's shards run serially: the campaign already fans
                # out over cells, and retries a cell as a whole.
                execution=ExecutionSpec(
                    workers=1,
                    shard_size=execution.shard_size,
                    backend=execution.backend,
                ),
                keep_details=keep_details,
                profile_capacities=_profile_capacities(specs),
            ),
            specs,
            workers=workers,
            retries=execution.retries,
            task_timeout=execution.task_timeout,
            on_error=execution.on_error,
        )
    finally:
        if ephemeral is not None:
            runner.close()
            ephemeral.cleanup()
    return CampaignResult(
        rows=_rows_from_outcomes(specs, outcomes),
        workers=workers,
        cache_dir=str(cache.root) if cache is not None else None,
        seconds=time.perf_counter() - t0,
    )


def format_campaign(result: CampaignResult) -> str:
    """Plain-text campaign report in the package's table style."""
    # Imported here so running a campaign never loads the experiments
    # package.
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

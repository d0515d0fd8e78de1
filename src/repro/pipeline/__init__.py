"""Pipeline layer: content-addressed artifact cache + campaign runner.

Three pieces:

* :class:`~repro.pipeline.artifact_cache.ArtifactCache` — on-disk,
  content-addressed store for conflict profiles, exact simulation
  stats and whole optimization outcomes, keyed by stable digests of
  their inputs (trace content, geometry, window, family, seeds), with
  pluggable byte-store backends (:mod:`repro.pipeline.storage`: local
  directory layout or a sqlite index shared by concurrent replicas);
* :class:`~repro.pipeline.context.PipelineContext` — the session
  object threaded (explicitly or ambiently, via
  :func:`~repro.pipeline.runtime.use_context`) through
  :mod:`repro.core` and the experiment drivers, so every flow reads
  through the cache with bit-identical results;
* :func:`~repro.pipeline.campaign.run_campaign` — process-pool
  execution of :class:`~repro.api.spec.ExperimentSpec` grids (benchmark
  x geometry x family cells, see :func:`repro.api.expand_grid`), shared
  by ``repro campaign``, ``repro tables`` and the table benchmarks.
  Execution is *resilient* (:mod:`repro.pipeline.resilience`): bounded
  retries with backoff, per-task timeouts, worker-crash recovery and an
  ``on_error`` policy — all testable through the deterministic
  fault-injection harness in :mod:`repro.pipeline.faults`.
"""

from repro.pipeline.artifact_cache import ArtifactCache, default_cache_dir, stable_key
from repro.pipeline.campaign import (
    CampaignResult,
    CampaignRow,
    format_campaign,
    run_campaign,
)
from repro.pipeline.context import PipelineContext
from repro.pipeline.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FAULTS_ENV,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    active_plan,
    use_faults,
)
from repro.pipeline.resilience import TaskOutcome, run_resilient
from repro.pipeline.runtime import current_context, use_context
from repro.pipeline.storage import (
    STORAGE_BACKENDS,
    STORAGE_ENV,
    LocalDirStorage,
    SqliteStorage,
    StorageBackend,
    resolve_storage,
)

__all__ = [
    "ArtifactCache",
    "default_cache_dir",
    "stable_key",
    "PipelineContext",
    "current_context",
    "use_context",
    "CampaignRow",
    "CampaignResult",
    "run_campaign",
    "format_campaign",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FAULTS_ENV",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "use_faults",
    "TaskOutcome",
    "run_resilient",
    "STORAGE_BACKENDS",
    "STORAGE_ENV",
    "StorageBackend",
    "LocalDirStorage",
    "SqliteStorage",
    "resolve_storage",
]

"""Pipeline layer: content-addressed artifact cache + campaign runner.

Three pieces:

* :class:`~repro.pipeline.artifact_cache.ArtifactCache` — on-disk,
  content-addressed store for conflict profiles, exact simulation
  stats and whole optimization outcomes, keyed by stable digests of
  their inputs (trace content, geometry, window, family, seeds), with
  pluggable byte-store backends (:mod:`repro.pipeline.storage`: local
  directory layout or a sqlite index shared by concurrent replicas);
* :class:`~repro.pipeline.context.PipelineContext` — the session
  object passed explicitly (``context=``) to :mod:`repro.core` and the
  experiment drivers, so every flow reads through the cache with
  bit-identical results; its :meth:`~repro.pipeline.context.PipelineContext.map`
  is the one way work fans out over processes;
* :func:`~repro.pipeline.campaign.run_campaign` — execution of
  :class:`~repro.api.spec.ExperimentSpec` grids (benchmark
  x geometry x family cells, see :func:`repro.api.expand_grid`), shared
  by ``repro campaign``, ``repro tables`` and the table benchmarks.
  Execution is *resilient* (:mod:`repro.pipeline.resilience`): bounded
  retries with backoff, per-task timeouts, worker-crash recovery and an
  ``on_error`` policy — all testable through the deterministic
  fault-injection harness in :mod:`repro.pipeline.faults`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.pipeline.artifact_cache": (
            "ArtifactCache",
            "default_cache_dir",
            "stable_key",
        ),
        "repro.pipeline.campaign": (
            "CampaignRow",
            "CampaignResult",
            "run_campaign",
            "format_campaign",
        ),
        "repro.pipeline.context": ("PipelineContext",),
        "repro.pipeline.faults": (
            "FAULT_KINDS",
            "FAULT_SITES",
            "FAULTS_ENV",
            "FaultInjected",
            "FaultPlan",
            "FaultSpec",
            "active_plan",
            "use_faults",
        ),
        "repro.pipeline.resilience": ("TaskOutcome", "run_resilient"),
        "repro.pipeline.storage": (
            "STORAGE_BACKENDS",
            "STORAGE_ENV",
            "StorageBackend",
            "LocalDirStorage",
            "SqliteStorage",
            "resolve_storage",
        ),
    },
)

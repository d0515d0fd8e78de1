"""repro — reproduction of "Application-Specific Reconfigurable
XOR-Indexing to Eliminate Cache Conflict Misses" (Vandierendonck,
Manet & Legat, DATE 2006).

Quickstart::

    from repro import ExperimentSpec, Session, TraceSpec

    spec = ExperimentSpec(trace=TraceSpec("mibench", "fft"))
    result = Session().optimize(spec)
    print(result.summary())
    print(result.hash_function.describe())

The imperative surface remains::

    from repro import CacheGeometry, optimize_for_trace
    from repro.workloads import get_trace

    trace = get_trace("mibench", "fft", kind="data", scale="small")
    result = optimize_for_trace(trace, CacheGeometry.direct_mapped(4096),
                                family="2-in")

Packages:

* :mod:`repro.api` — declarative experiment specs, the ``Session``
  facade, and the stable ``repro-report/v1`` JSON schema;

* :mod:`repro.gf2` — GF(2) linear algebra and XOR hash functions;
* :mod:`repro.trace` — address traces and synthetic generators;
* :mod:`repro.workloads` — MiBench/MediaBench and PowerStone kernels;
* :mod:`repro.cache` — cache geometries, indexing policies, simulators;
* :mod:`repro.profiling` — the Fig. 1 profiler and Eq. 4 estimator;
* :mod:`repro.search` — hill climbing and exhaustive baselines;
* :mod:`repro.hardware` — reconfigurable selector-network models;
* :mod:`repro.core` — the end-to-end optimization pipeline;
* :mod:`repro.pipeline` — content-addressed artifact cache (pluggable
  local/sqlite storage) and the parallel campaign runner;
* :mod:`repro.serve` — the long-lived HTTP optimization service behind
  ``repro serve`` (in-flight dedup, job registry, client helpers);
* :mod:`repro.experiments` — drivers regenerating every paper table/figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Names resolve on first access (PEP 562), so ``import repro`` loads
# only what a caller touches.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.api.errors": ("SpecError",),
        "repro.api.spec": (
            "TraceSpec",
            "GeometrySpec",
            "SearchSpec",
            "ExecutionSpec",
            "ExperimentSpec",
        ),
        "repro.api.session": ("Session",),
        "repro.cache.geometry": (
            "CacheGeometry",
            "PAPER_GEOMETRIES",
            "PAPER_HASHED_BITS",
        ),
        "repro.cache.stats": ("CacheStats",),
        "repro.gf2.hashfn": ("XorHashFunction",),
        "repro.trace.trace": ("Trace",),
        "repro.profiling.conflict_profile": ("ConflictProfile", "profile_trace"),
        "repro.core.optimizer": ("optimize_for_trace", "OptimizationResult"),
        "repro.pipeline.artifact_cache": ("ArtifactCache",),
        "repro.pipeline.context": ("PipelineContext",),
        "repro.pipeline.campaign": ("run_campaign",),
    },
)
__all__.append("__version__")

"""Profiling substrate: the paper's Fig. 1 pass and Eq. 4 estimator."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.profiling.conflict_profile": (
            "ConflictProfile",
            "profile_blocks",
            "profile_trace",
        ),
        "repro.profiling.estimator": ("MissEstimator",),
        "repro.profiling.reuse": ("reuse_distances", "reuse_distance_histogram"),
        "repro.profiling.sharded": (
            "ShardPlan",
            "ShardedProfileResult",
            "run_sharded_profile",
        ),
    },
)

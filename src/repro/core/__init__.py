"""The paper's primary contribution: profile-driven index optimization."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.evaluate": (
            "evaluate_indexing",
            "evaluate_hash_function",
            "evaluate_hash_functions",
            "baseline_stats",
            "compare_indexings",
        ),
        "repro.core.optimizer": ("OptimizationResult", "optimize_for_trace"),
    },
)

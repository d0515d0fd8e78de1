"""The paper's primary contribution: profile-driven index optimization."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.optimizer": ("OptimizationResult", "optimize_for_trace"),
    },
)

"""Workload registry: lookup and caching for the benchmark kernels."""

from __future__ import annotations

from functools import lru_cache

from repro.names import SCALES, TRACE_KINDS
from repro.trace.trace import Trace
from repro.workloads import mibench, powerstone
from repro.workloads.cpu import WorkloadRun

__all__ = [
    "SUITES",
    "SCALES",
    "TRACE_KINDS",
    "workload_names",
    "get_workload",
    "get_trace",
]

SUITES = {
    "mibench": mibench.KERNELS,
    "powerstone": powerstone.KERNELS,
}


def workload_names(suite: str) -> list[str]:
    """Kernel names of a suite, in the paper's table order."""
    try:
        return list(SUITES[suite].keys())
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        ) from None


@lru_cache(maxsize=None)
def get_workload(suite: str, name: str, scale: str = "default", seed: int = 0) -> WorkloadRun:
    """Run (or fetch the cached run of) a workload kernel.

    Kernels are deterministic in (scale, seed), so caching is sound and
    lets the experiment drivers share one run across cache sizes.
    """
    kernels = SUITES.get(suite)
    if kernels is None:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    runner = kernels.get(name)
    if runner is None:
        raise ValueError(
            f"unknown workload {suite}/{name}; choose from {workload_names(suite)}"
        )
    return runner(scale, seed)


def get_trace(
    suite: str, name: str, kind: str = "data", scale: str = "default", seed: int = 0
) -> Trace:
    """Convenience: the data or instruction trace of a workload."""
    return get_workload(suite, name, scale, seed).trace(kind)


"""Workload registry: lookup and caching for the benchmark kernels."""

from __future__ import annotations

import hashlib
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from repro.trace.trace import Trace
from repro.workloads import mibench, powerstone
from repro.workloads.cpu import WorkloadRun

__all__ = [
    "SUITES",
    "SCALES",
    "TRACE_KINDS",
    "workload_names",
    "has_workload",
    "get_workload",
    "get_trace",
    "generator_fingerprint",
]

SUITES = {
    "mibench": mibench.KERNELS,
    "powerstone": powerstone.KERNELS,
}

#: The scale presets every bundled kernel understands, smallest first.
SCALES = ("tiny", "small", "default", "large")

#: The address streams a workload run can be asked for.
TRACE_KINDS = ("data", "instruction")


def has_workload(suite: str, name: str) -> bool:
    """Whether ``suite/name`` resolves, without running the kernel.

    The spec layer (:class:`repro.api.TraceSpec`) validates against
    this so a typo fails at construction, not minutes later inside a
    campaign worker.
    """
    return name in SUITES.get(suite, {})


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


@cache
def generator_fingerprint() -> str:
    """sha256 of everything a registry trace's content depends on.

    That is the source of every module under :mod:`repro.workloads`,
    :mod:`repro.trace.trace` (the :class:`Trace` constructor coerces
    the addresses) and the NumPy version.  Records keyed by it (the
    pipeline's trace-digest memo) go stale by construction when any of
    them changes.  Computed once per process.
    """
    package = Path(__file__).resolve().parent.parent
    sources = sorted(
        path.relative_to(package).as_posix()
        for path in (package / "workloads").rglob("*.py")
    )
    digest = hashlib.sha256(f"numpy={np.__version__}".encode())
    for name in [*sources, "trace/trace.py"]:
        digest.update(f"\0{name}\0".encode())
        digest.update((package / name).read_bytes())
    return digest.hexdigest()

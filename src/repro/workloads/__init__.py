"""Benchmark workload substrate.

Re-implementations of the paper's MediaBench/MiBench (Table 2) and
PowerStone (Table 3) kernels: each runs its algorithm against a
simulated memory layout and emits the data addresses, instruction
fetches and uop counts the real benchmark would produce.  See DESIGN.md
for the substitution rationale.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.workloads.cpu": ("TraceBuilder", "CodeImage", "WorkloadRun"),
        "repro.workloads.layout": ("MemoryLayout", "Region"),
        "repro.workloads.registry": (
            "SUITES",
            "workload_names",
            "get_workload",
            "get_trace",
        ),
    },
)

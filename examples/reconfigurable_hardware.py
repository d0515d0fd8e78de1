#!/usr/bin/env python3
"""Explore the reconfigurable-hardware side of the paper (Secs. 4-5).

Compares the four selector-network schemes of Table 1 at every paper
cache size — switch counts, crossbar dimensions, config bits — then
programs the permutation-based network for two different applications
and shows the *reconfiguration*: the same silicon, two workloads, two
switch settings.

Run:  python examples/reconfigurable_hardware.py
"""

from repro import CacheGeometry
from repro.core.optimizer import optimize_for_trace
from repro.hardware import (
    build_network,
    render_network,
    switch_counts,
    wiring_report,
)
from repro.workloads import get_trace

SCHEMES = ("bit-select", "optimized bit-select", "general XOR", "permutation-based")


def complexity_comparison() -> None:
    print("Table 1 — switches for reconfigurable indexing (n = 16):")
    print(f"{'scheme':<22}" + "".join(f"{label:>12}" for label in ("1KB", "4KB", "16KB")))
    for scheme in SCHEMES:
        row = [switch_counts(16, m)[scheme] for m in (8, 10, 12)]
        print(f"{scheme:<22}" + "".join(f"{v:>12}" for v in row))
    print()
    print("Sec. 5 wiring (n = 16, m = 10):")
    print(f"{'scheme':<22}{'in-lines':>9}{'out-lines':>10}{'crossings':>10}{'cap-proxy':>10}")
    for scheme in SCHEMES:
        report = wiring_report(build_network(scheme, 16, 10))
        print(
            f"{scheme:<22}{report.input_lines:>9}{report.output_lines:>10}"
            f"{report.crossings:>10}{report.capacitance_proxy:>10.0f}"
        )
    print()


def reconfigure_for(workload: str) -> None:
    geometry = CacheGeometry.direct_mapped(1024)
    trace = get_trace("mibench", workload, kind="data", scale="tiny")
    result = optimize_for_trace(trace, geometry, family="2-in")
    network = build_network("permutation-based", 16, geometry.index_bits)
    network.configure_from(result.hash_function)
    print(f"--- configured for {workload} "
          f"({result.removed_percent:.1f}% of misses removed) ---")
    print(render_network(network))
    print()


def main() -> None:
    complexity_comparison()
    print("One network, two applications — reconfiguration in action:\n")
    reconfigure_for("dijkstra")
    reconfigure_for("jpeg_dec")


if __name__ == "__main__":
    main()

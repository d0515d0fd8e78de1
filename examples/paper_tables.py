#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

A thin driver over :mod:`repro.experiments`; the pytest-benchmark
harness in ``benchmarks/`` runs the same drivers with timing and
assertion checks — this script is the human-friendly version.

Run:  python examples/paper_tables.py [tiny|small|default]
"""

import sys
import time

from repro.experiments import (
    format_counting,
    format_figure2,
    format_general_vs_perm,
    format_table1,
    format_table2,
    format_table3,
    run_figure2,
    run_general_vs_perm,
    run_table2,
    run_table3,
)


def main(scale: str) -> None:
    t0 = time.perf_counter()

    print(format_counting())
    print()
    print(format_table1())
    print()
    print(format_figure2(run_figure2()))

    print(format_general_vs_perm(run_general_vs_perm(scale=scale)))
    print()
    print(format_table2(run_table2(kind="data", scale=scale)))
    print()
    print(format_table2(run_table2(kind="instruction", scale=scale)))
    print()
    print(format_table3(run_table3(scale=scale)))
    print()
    print(f"total: {time.perf_counter() - t0:.1f}s at scale={scale!r}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "tiny")

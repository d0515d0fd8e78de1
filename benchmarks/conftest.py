"""Benchmark configuration.

Each paper table/figure has one bench module.  Experiment benches run
the full driver once per benchmark round (``pedantic`` with a single
round: regenerating a table *is* the measured unit) and print the
regenerated table so the run doubles as the reproduction artifact;
outputs are also written to ``benchmarks/results/``.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — workload scale for the experiment benches
  (``tiny`` / ``small`` / ``default``; default ``small``).
* ``REPRO_BENCH_WORKERS`` — campaign worker processes for the table
  grids (default 1 = serial, so timings stay comparable across hosts;
  0 = one per core).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def bench_workers() -> int | None:
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    return workers if workers > 0 else None


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(results_dir: Path, name: str, text: str) -> None:
    """Print a regenerated table and persist it under results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")

"""Paper Table 3: heuristic vs optimal bit selection vs full associativity.

For each PowerStone benchmark on the 4 KB direct-mapped data cache:

* ``opt``   — the optimal bit-selecting function (exact simulation,
  found by branch and bound — Patel et al.'s result);
* ``1-in``  — bit selection found by the paper's heuristic;
* ``2/4/16-in`` — permutation-based XOR functions from the heuristic;
* ``FA``    — a fully-associative LRU cache of equal capacity.

All columns report % of baseline misses removed.  The paper's headline
observations, checked by the regression tests:

* the heuristic matches the optimum on most benchmarks;
* XOR functions beat optimal bit selection on average;
* FA-LRU is not an upper bound (hashing can beat it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.cache import engine
from repro.cache.geometry import CacheGeometry, PAPER_HASHED_BITS
from repro.core.optimizer import optimize_for_trace
from repro.experiments.common import format_table, mean
from repro.pipeline.context import REPLAY_ONLY, NotCached, PipelineContext
from repro.search.exhaustive import optimal_bit_select
from repro.workloads.registry import get_workload, workload_names

__all__ = ["Table3Row", "run_table3", "format_table3", "PAPER_TABLE3"]

#: Published Table 3 (% misses removed), for shape comparison.
PAPER_TABLE3 = {
    "adpcm": (0.0, 0.0, 0.2, 0.2, 0.2, 0.2),
    "bcnt": (5.2, 0.0, 0.0, 0.0, 0.0, 0.0),
    "blit": (14.7, 8.6, 14.3, 14.3, 14.3, 0.0),
    "compress": (3.2, 3.0, 2.4, 2.8, 2.9, 2.7),
    "crc": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "des": (0.0, 0.0, 8.8, 8.6, 10.1, 17.8),
    "engine": (36.2, 36.2, 36.2, 36.2, 36.2, 36.2),
    "fir": (7.7, 7.7, 7.7, 7.7, 7.7, 7.7),
    "g3fax": (0.0, 0.0, 37.1, 41.1, 41.1, 57.0),
    "jpeg": (2.3, 2.3, 1.4, 1.6, 1.6, 7.2),
    "pocsag": (3.0, 3.0, 3.0, 3.0, 3.0, 3.0),
    "qurt": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "ucbqsort": (46.6, 46.6, 46.6, 46.6, 46.6, 46.6),
    "v42": (0.0, 0.0, 5.6, 6.2, 6.0, 18.0),
}

COLUMNS = ("opt", "1-in", "2-in", "4-in", "16-in", "FA")


@dataclass
class Table3Row:
    benchmark: str
    base_misses: int
    removed_percent: dict[str, float] = field(default_factory=dict)


def _table3_row(
    context: PipelineContext,
    name: str,
    scale: str,
    cache_bytes: int,
    opt_mode: str,
    seed: int,
    max_refs: int | None,
) -> Table3Row:
    """One Table 3 row; top level so pool workers can pickle it."""
    if REPLAY_ONLY.get():
        # The row's trace and its opt and FA columns are computed
        # outside any cached stage, so a row never replays.
        raise NotCached("table3-row", f"powerstone/{name}")
    geometry = CacheGeometry.direct_mapped(cache_bytes)
    n = PAPER_HASHED_BITS
    trace = get_workload("powerstone", name, scale, seed).data
    if max_refs is not None:
        trace = trace.head(max_refs)
    blocks = trace.block_addresses(geometry.block_size)
    base = context.baseline(trace, geometry)
    profile = context.profile(trace, geometry, n)
    row = Table3Row(benchmark=name, base_misses=base.misses)

    exhaustive = optimal_bit_select(
        n,
        geometry.index_bits,
        blocks=blocks if opt_mode == "exact" else None,
        profile=profile if opt_mode == "estimate" else None,
        mode=opt_mode,
    )
    opt_stats = context.evaluate(trace, geometry, exhaustive.function)
    row.removed_percent["opt"] = opt_stats.removed_fraction(base)

    for family in ("1-in", "2-in", "4-in", "16-in"):
        result = optimize_for_trace(
            trace, geometry, family=family, profile=profile, context=context
        )
        row.removed_percent[family] = result.removed_percent

    fa = engine.simulate_capacity(blocks, geometry.num_blocks)
    row.removed_percent["FA"] = fa.removed_fraction(base)
    return row


def run_table3(
    scale: str = "small",
    cache_bytes: int = 4096,
    benchmarks: tuple[str, ...] | None = None,
    opt_mode: str = "exact",
    seed: int = 0,
    max_refs: int | None = None,
    workers: int | None = 1,
    context: PipelineContext | None = None,
) -> list[Table3Row]:
    """Regenerate Table 3.

    ``opt_mode="exact"`` finds the best of all C(16, m) bit selections
    under exact simulation (the true optimum, as in the paper), by a
    branch and bound that simulates only the selections its bound
    cannot rule out; ``opt_mode="estimate"`` scores selections with
    Eq. 4 instead.  ``max_refs`` truncates long traces before the
    optimal pass — the same cost control that limited the paper to the
    short PowerStone suite.  Rows fan out through :meth:`PipelineContext.map`: profiles,
    baselines and exact verifications go through ``context``'s artifact
    cache (``None`` runs without one), and ``workers > 1`` (or ``None``
    for one per core) runs benchmarks on a process pool whose workers
    share that cache.
    """
    names = benchmarks if benchmarks is not None else tuple(workload_names("powerstone"))
    if context is None:
        context = PipelineContext()
    row = partial(
        _table3_row,
        scale=scale,
        cache_bytes=cache_bytes,
        opt_mode=opt_mode,
        seed=seed,
        max_refs=max_refs,
    )
    return [outcome.value for outcome in context.map(row, names, workers=workers)]


def average_row(rows: list[Table3Row]) -> dict[str, float]:
    return {
        column: mean(r.removed_percent[column] for r in rows) for column in COLUMNS
    }


def format_table3(rows: list[Table3Row]) -> str:
    table = [
        [r.benchmark] + [r.removed_percent[c] for c in COLUMNS] for r in rows
    ]
    avg = average_row(rows)
    table.append(["average"] + [avg[c] for c in COLUMNS])
    return format_table(
        ["bench"] + list(COLUMNS),
        table,
        title="Table 3: % misses removed (PowerStone, 4KB data cache)",
    )

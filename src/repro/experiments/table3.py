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

from repro.api.report import function_from_json, function_to_json
from repro.api.spec import ExperimentSpec, GeometrySpec, SearchSpec, TraceSpec
from repro.cache.geometry import CacheGeometry, PAPER_HASHED_BITS
from repro.core.optimizer import run_spec
from repro.experiments.common import format_table, mean
from repro.gf2.hashfn import XorHashFunction
from repro.pipeline.artifact_cache import stable_key
from repro.pipeline.context import PipelineContext, geometry_params
from repro.search.exhaustive import optimal_bit_select
from repro.trace.trace import Trace
from repro.workloads.registry import workload_names

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


#: Storage kind of the ``opt`` column's record: the optimal selection.
OPT_KIND = "optimal-bit-select"


def _optimal_bit_select(
    context: PipelineContext, trace: Trace, geometry: CacheGeometry, n: int
) -> XorHashFunction:
    """The exact optimal bit selection for ``trace``, staged as one JSON
    record keyed by the trace's digest, the geometry and ``n``."""
    key = stable_key(
        OPT_KIND,
        {"trace": trace.digest, "geometry": geometry_params(geometry), "n": n},
    )

    def compute(missing: list[str]):
        blocks = trace.block_addresses(geometry.block_size)
        best = optimal_bit_select(n, geometry.index_bits, blocks=blocks)
        return [(key, best.function)]

    def load(cache, key: str) -> XorHashFunction | None:
        payload = cache.load_json(OPT_KIND, key)
        return None if payload is None else function_from_json(payload)

    def store(cache, key: str, function: XorHashFunction) -> None:
        cache.store_json(OPT_KIND, key, function_to_json(function))

    return context.stage(OPT_KIND, [key], compute, load, store)[key]


def _table3_row(
    context: PipelineContext, name: str, scale: str, cache_bytes: int, seed: int
) -> Table3Row:
    """One Table 3 row, every column a cached stage; top level so pool
    workers can pickle it."""
    trace_spec = TraceSpec("powerstone", name, scale=scale, seed=seed)
    geometry_spec = GeometrySpec(cache_bytes=cache_bytes)
    geometry = geometry_spec.resolve()
    trace = context.trace(trace_spec)
    base = context.baseline(trace, geometry)
    row = Table3Row(benchmark=name, base_misses=base.misses)

    opt = _optimal_bit_select(context, trace, geometry, PAPER_HASHED_BITS)
    opt_stats = context.evaluate(trace, geometry, opt)
    row.removed_percent["opt"] = opt_stats.removed_fraction(base)

    for family in ("1-in", "2-in", "4-in", "16-in"):
        spec = ExperimentSpec(trace_spec, geometry_spec, SearchSpec(family=family))
        row.removed_percent[family] = run_spec(context, spec)[1].removed_percent

    fa = context.baseline(trace, CacheGeometry.fully_associative(cache_bytes))
    row.removed_percent["FA"] = fa.removed_fraction(base)
    return row


def run_table3(
    scale: str = "small",
    cache_bytes: int = 4096,
    benchmarks: tuple[str, ...] | None = None,
    seed: int = 0,
    workers: int | None = 1,
    context: PipelineContext | None = None,
) -> list[Table3Row]:
    """Regenerate Table 3 over complete traces.

    The ``opt`` column is the best of all C(16, m) bit selections under
    exact simulation (the true optimum, as in the paper), found by a
    branch and bound that simulates only the selections its bound
    cannot rule out.  Every column is a cached stage of ``context``
    (``None`` runs without a cache): the trace, the baselines, the
    ``opt`` selection and its stats, and the heuristic columns' whole
    ``optimization`` records, which a ``repro campaign`` of the same
    cells shares, so a warm run computes nothing.  Rows fan out through
    :meth:`PipelineContext.map`; ``workers > 1`` (or ``None`` for one
    per core) runs benchmarks on a process pool whose workers share
    that cache.
    """
    names = benchmarks if benchmarks is not None else tuple(workload_names("powerstone"))
    if context is None:
        context = PipelineContext()
    row = partial(_table3_row, scale=scale, cache_bytes=cache_bytes, seed=seed)
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

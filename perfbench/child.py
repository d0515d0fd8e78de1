"""In-process parts of the workloads, run in their own interpreter.

``python perfbench/child.py <task> --out FILE [options]``

Every task imports ``repro`` from the checkout's ``src/``, prints one
``READY {...}`` line when its set-up is done (``run.py`` times spawn to
that line), does its work and writes a JSON result to ``--out``:

* ``probe``    - import ``repro`` and open a ``Session``; nothing else.
* ``campaign`` - the Table-2 data-cache grid through ``Session.campaign``,
  one kernel's cells per line read from stdin.
* ``sweep``    - the search sweep through ``Session.optimize``.
* ``oracle``   - the expected report of every distinct serve spec.

Each task runs in a fresh process so that its peak RSS is its own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import shutil
import statistics
import sys
import time

import stats

#: Table 2 data caches: every MiBench kernel x 1/4/16 KB x 2/4/16-in.
TABLE2_GRID = {
    "suite": "mibench",
    "kinds": ["data"],
    "cache_bytes": [1024, 4096, 16384],
    "families": ["2-in", "4-in", "16-in"],
    "scale": "small",
}

SWEEP_KERNELS = ("fft", "susan", "jpeg_enc")
SWEEP_FAMILIES = ("1-in", "2-in", "4-in", "16-in", "general")
SWEEP_STRATEGIES = ("steepest", "first-improvement", "beam:4", "anneal", "portfolio:2")
#: Specs a traced sweep runs again untraced to measure tracing overhead.
OVERHEAD_SPECS = 15


def sweep_specs() -> list[dict]:
    return [
        {
            "trace": {"suite": "mibench", "benchmark": kernel, "scale": "small"},
            "geometry": {"cache_bytes": 4096},
            "search": {"family": family, "strategy": strategy},
        }
        for kernel in SWEEP_KERNELS
        for family in SWEEP_FAMILIES
        for strategy in SWEEP_STRATEGIES
    ]


def _import_repro() -> float:
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.api import Session  # noqa: F401

    return time.perf_counter() - t0


def _ready(**info) -> None:
    print("READY " + json.dumps(info), flush=True)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _paper_averages() -> list:
    from repro.experiments.table2 import PAPER_TABLE2_AVERAGES

    return [
        (kind, kb, family, value)
        for (kind, kb), (_base, removed) in PAPER_TABLE2_AVERAGES.items()
        for family, value in removed.items()
    ]


def _cell(spec, removed: float) -> tuple:
    return (
        spec.trace.kind,
        spec.geometry.cache_bytes // 1024,
        spec.search.family,
        removed,
    )


def _tracer(args):
    if not args.trace_out:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def probe(args) -> dict:
    import_s = _import_repro()
    from repro.api import Session

    Session(cache_dir=args.cache_dir).close()
    _ready(import_s=import_s)
    return {"import_s": import_s}


def campaign(args) -> dict:
    import_s = _import_repro()
    from repro.api import Session, expand_grid

    tracer = _tracer(args)
    specs = expand_grid(TABLE2_GRID)
    kernels = list(dict.fromkeys(spec.trace.benchmark for spec in specs))
    session = Session(cache_dir=args.cache_dir, workers=1, storage="local")
    _ready(import_s=import_s, kernels=kernels)
    # One kernel's cells per "next" line on stdin; each kernel's rows go
    # back as one "CHUNK [...]" line.  Anything the campaign itself prints
    # goes to stderr, so stdout carries only these lines.
    out = sys.stdout
    done, rows, windows, cold_s = [], [], [], 0.0
    for kernel in kernels:
        sys.stdin.readline()
        chunk = [spec for spec in specs if spec.trace.benchmark == kernel]
        start = time.monotonic()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            result = session.campaign(chunk)
        cold_s += time.perf_counter() - t0
        windows.append((start, time.monotonic()))
        chunk_rows = [row.to_json() for row in result.rows]
        done += chunk
        rows += chunk_rows
        print("CHUNK " + json.dumps(chunk_rows), file=out, flush=True)
    peak = _peak_rss_mb()
    session.close()
    failed = [row for row in rows if row.get("status", "ok") != "ok"]
    gap, groups = stats.paper_gap(
        [_cell(spec, row["removed_percent"]) for spec, row in zip(done, rows)],
        _paper_averages(),
    )
    if tracer is not None:
        tracer.dump(args.trace_out)
    return {
        "import_s": import_s,
        "cold_s": cold_s,
        "windows": {"cold": windows},
        "failed": len(failed),
        "peak_rss_mb": peak,
        "misses_removed_pct": statistics.fmean(r["removed_percent"] for r in rows),
        "paper_gap_pp": gap,
        "paper_groups": groups,
    }


def sweep(args) -> dict:
    import_s = _import_repro()
    from repro.api import ExperimentSpec, Session
    from repro.cache import engine
    from repro.cache.indexing import ModuloIndexing, XorIndexing

    tracer = _tracer(args)
    specs = [ExperimentSpec.from_dict(spec) for spec in sweep_specs()]
    t0 = time.perf_counter()
    with Session(cache_dir=args.cache_dir) as session:
        for kernel in SWEEP_KERNELS:
            session.profile(next(s for s in specs if s.trace.benchmark == kernel))
    prewarm_s = time.perf_counter() - t0
    if tracer is not None:
        # The untraced overhead reference starts from the same profiles.
        shutil.copytree(args.cache_dir, args.cache_dir + "-untraced")
    _ready(import_s=import_s, prewarm_s=prewarm_s)

    # The timed pass.  After each spec, a second session replays it once
    # from the artifact cache (excluded from cold_s), so the warm samples
    # are spread over the whole pass.
    order = list(range(len(specs)))
    random.Random(args.seed).shuffle(order)
    results = [None] * len(specs)
    spec_s = [0.0] * len(specs)
    windows = {"cold": [], "warm": []}
    samples, replayed = [], []
    with Session(cache_dir=args.cache_dir) as session, \
            Session(cache_dir=args.cache_dir) as warm_session:
        for j in order:
            start = time.monotonic()
            t0 = time.perf_counter()
            results[j] = session.optimize(specs[j])
            spec_s[j] = time.perf_counter() - t0
            windows["cold"].append((start, time.monotonic()))
            start = time.monotonic()
            t0 = time.perf_counter()
            replayed.append(warm_session.optimize(specs[j]).hash_function)
            samples.append(time.perf_counter() - t0)
            windows["warm"].append((start, time.monotonic()))
    peak = _peak_rss_mb()

    overhead = None
    if tracer is not None:
        # Tracing overhead: a seeded sample of specs run cold again with the
        # tracer removed, against their traced times above.
        tracer.uninstall()
        sample = order[:OVERHEAD_SPECS]
        untraced = 0.0
        with Session(cache_dir=args.cache_dir + "-untraced") as session:
            for j in sample:
                t0 = time.perf_counter()
                session.optimize(specs[j])
                untraced += time.perf_counter() - t0
        overhead = 100 * (sum(spec_s[j] for j in sample) / untraced - 1)

    # Correctness: an independent exact simulation of every result, and
    # every replay returns the function its cold run found.
    failed_checks = sum(fn != results[j].hash_function for j, fn in zip(order, replayed))
    for spec, result in zip(specs, results):
        trace = spec.trace.resolve()
        geometry = spec.geometry.resolve()
        blocks = trace.block_addresses(geometry.block_size)
        optimized = engine.simulate(blocks, geometry, XorIndexing(result.hash_function))
        baseline = engine.simulate(blocks, geometry, ModuloIndexing(geometry.index_bits))
        if (optimized.misses, baseline.misses) != (
            result.optimized.misses,
            result.baseline.misses,
        ):
            failed_checks += 1
    if tracer is not None:
        tracer.dump(args.trace_out)
    return {
        "import_s": import_s,
        "prewarm_s": prewarm_s,
        "cold_s": sum(spec_s),
        "spec_s": spec_s,
        "windows": windows,
        "warm_s": samples,
        "trace_overhead_pct": overhead,
        "attempted": len(specs) + len(samples),
        "failed": failed_checks,
        "peak_rss_mb": peak,
        "misses_removed_pct": statistics.fmean(r.removed_percent for r in results),
        "paper_gap_pp": stats.paper_gap(
            [
                _cell(spec, result.removed_percent)
                for spec, result in zip(specs, results)
                if spec.search.strategy == "steepest"
            ],
            _paper_averages(),
        )[0],
    }


def oracle(args) -> dict:
    _ready(import_s=_import_repro())
    from repro.api import Session

    with open(args.specs) as fh:
        specs = json.load(fh)
    reports = {}
    with Session() as session:
        for spec in specs:
            report = session.optimize(spec).to_json()
            reports[report["digests"]["spec"]] = stats.normalize_report(report)
    return {"reports": reports, "paper": _paper_averages()}


TASKS = {"probe": probe, "campaign": campaign, "sweep": sweep, "oracle": oracle}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--specs", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    result = TASKS[args.task](args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the repro pipeline: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports ``repro`` from ``src/``
in child processes and keeps its scratch files under ``.bench_work/``.
Workloads (see ``perfbench/README.md`` for why each exists):

* ``table2-campaign`` - the paper's Table-2 data-cache grid, then
  fresh-process ``repro run --expect-cached`` replays of its cells;
* ``search-sweep``    - 75 ``Session.optimize`` specs whose profiles are
  computed in set-up, so the timed pass is search and estimator only
  (not in ``BENCHMARK.json``: too noisy on a shared host to gate);
* ``serve-zipf``      - a real ``repro serve``, a cold pass over 68
  specs, then a seeded zipf stream of cache hits.

``--seconds`` is the length of the ``serve-zipf`` hit phase; the other
workloads do a fixed amount of work.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is a separate run with every layer
wrapped, reporting per-layer metrics.
The last line of standard output is the JSON result; the raw samples
behind every median go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

import workloads

#: Gated end-to-end metric -> unit, in the order BENCHMARK.json lists them.
E2E_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_ms": "ms",
    "misses_removed_pct": "%",
    "paper_gap_pp": "pp",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics printed but not gated: their run-to-run spread on a
#: 2-core host exceeds the largest bound in BENCHMARK.json (see
#: perfbench/README.md, "Steadiness").
PRINTED_UNITS = {"warm_ms_tail": "ms", "throughput_rps": "req/s"}


def _summary(name: str, outcome, trace: bool) -> None:
    failed_pct = 100 * outcome.failed / outcome.attempted
    print(f"# {name}: {outcome.attempted} attempted, {outcome.failed} failed "
          f"(failed_pct {failed_pct:.2f} %)")
    for note in outcome.notes:
        print(f"# {note}")
    label = "traced run, not comparable" if trace else "end-to-end"
    for metric, unit in {**E2E_UNITS, **PRINTED_UNITS}.items():
        extra = "" if metric in E2E_UNITS else ", not gated"
        if metric == "warm_ms_tail":
            extra += (f"; p{outcome.e2e['_tail_percentile']:.1f} of "
                      f"{len(outcome.samples['warm_s'])} samples")
        print(f"{metric:<26} {outcome.e2e[metric]:>14.4f} {unit:<6} [{label}{extra}]")
    if trace:
        for metric, unit in workloads.LAYER_UNITS.items():
            print(f"{metric:<26} {outcome.layers[metric]:>14.4f} {unit}")
        for title, table in outcome.breakdown.items():
            cells = ", ".join(f"{k} {v:.3f}" for k, v in table.items())
            print(f"# {title}: {cells}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    # A SIGTERM unwinds through the cleanup below, which stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    work_root = root / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = workloads.Bench(root, work, args.seed, args.seconds, bool(args.trace))
    started = time.time()
    try:
        outcome = workloads.WORKLOADS[args.workload](bench)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        bench.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {
            name: {"value": outcome.layers[name], "unit": unit}
            for name, unit in workloads.LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": outcome.e2e[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    results = work_root / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "wall_s": time.time() - started,
        "result": result,
        "e2e": outcome.e2e,
        "breakdown": outcome.breakdown,
        "samples": outcome.samples,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}-{os.getpid()}"
    (results / f"{stem}.json").write_text(json.dumps(record))
    _summary(args.workload, outcome, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

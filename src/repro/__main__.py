"""Command-line interface: ``python -m repro <command>``.

Every experiment-shaped command is a thin constructor over the
declarative spec API (:mod:`repro.api`): it assembles an
:class:`~repro.api.ExperimentSpec` from its flags, validates it at the
boundary (any problem is one :class:`~repro.api.SpecError` with an
actionable message and exit code 2), and hands it to a
:class:`~repro.api.Session`.  ``--json`` flags emit the stable
``repro-report/v1`` schema to stdout.

Commands:

* ``run``       — execute a TOML/JSON experiment-spec file;
* ``spec``      — scaffold an experiment-spec file from flags;
* ``optimize``  — construct an index function for a bundled workload;
* ``profile``   — conflict-vector profile (Fig. 1) for a workload or an
  on-disk trace file, optionally through the sharded out-of-core
  driver (``--shard-size`` / ``--workers``);
* ``search``    — run the estimate-only search (any strategy, any
  restart count) without the exact verification replay;
* ``campaign``  — run a benchmark x cache x family grid through the
  artifact cache, in parallel across cores;
* ``serve``     — long-lived HTTP optimization service: POST specs to
  ``/v1/jobs``, in-flight dedup by spec digest, reports over HTTP;
* ``tables``    — regenerate the paper's tables/figures;
* ``workloads`` — list the bundled benchmark kernels;
* ``backends``  — list the compute backends and which one
  the engine kernels dispatch to;
* ``classify``  — three-Cs miss breakdown for a workload and cache.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    GeometrySpec,
    SearchSpec,
    Session,
    SpecError,
    TraceSpec,
    expand_grid,
)
from repro.names import FAMILY_CHOICES, SCALES, TRACE_FORMATS, TRACE_KINDS, WORKLOADS

# Everything else a subcommand needs is imported inside it, so e.g. a
# cached ``repro run`` never loads the campaign executor, the miss
# classifier or the service.


def _fail(error: SpecError) -> int:
    print(f"error: {error}", file=sys.stderr)
    return 2


def _check_replayed(args: argparse.Namespace, events: dict, detail: str = "") -> int:
    """Exit status of a run: 1 when ``--expect-cached`` was asked and
    the run's cache events show it was no replay."""
    from repro.pipeline.artifact_cache import replayed

    if args.expect_cached and not replayed(events):
        print(
            "FAIL: expected a fully cached replay but the cache saw "
            f"{events or 'nothing (no cache directory)'}{detail}",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("suite", choices=sorted(WORKLOADS), help="benchmark suite")
    parser.add_argument("name", help="kernel name (see `workloads`)")
    parser.add_argument(
        "--kind", choices=TRACE_KINDS, default="data",
        help="which address stream to use",
    )
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument("--cache-kb", type=int, default=4, help="cache size in KB")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries", type=int, default=0,
        help="failed-attempt budget per task (exceptions, timeouts, "
        "dead workers); digest-neutral",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="fail a task attempt after this many seconds and recycle "
        "its worker (parallel runs only)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip", "retry"), default="raise",
        help="post-budget policy: abort (raise), record a failed row "
        "and continue (skip), or raise with a minimum retry budget "
        "(retry)",
    )


def _resilience_overrides(args: argparse.Namespace) -> dict:
    """The non-default resilience flags, as with_execution kwargs."""
    overrides = {}
    if getattr(args, "retries", 0):
        overrides["retries"] = args.retries
    if getattr(args, "task_timeout", None) is not None:
        overrides["task_timeout"] = args.task_timeout
    if getattr(args, "on_error", "raise") != "raise":
        overrides["on_error"] = args.on_error
    return overrides


def _spec_from_args(args: argparse.Namespace, **search_overrides) -> ExperimentSpec:
    """The spec an ``optimize``/``search`` invocation denotes.

    Raises :class:`SpecError` — the single validation point for every
    flag combination, before any expensive work starts.
    """
    search = dict(
        family=getattr(args, "family", "2-in"),
        strategy=getattr(args, "strategy", "steepest"),
        restarts=getattr(args, "restarts", 0),
        seed=getattr(args, "search_seed", 0) or 0,
        guard=getattr(args, "guard", False),
        max_steps=getattr(args, "max_steps", None),
    )
    search.update(search_overrides)
    return ExperimentSpec(
        trace=TraceSpec(
            suite=args.suite, benchmark=args.name, kind=args.kind,
            scale=args.scale, seed=args.seed,
        ),
        geometry=GeometrySpec(cache_bytes=args.cache_kb * 1024),
        search=SearchSpec(**search),
        execution=ExecutionSpec(cache_dir=getattr(args, "cache_dir", None)),
    )


def _print_report(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_optimize(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    result = Session(cache_dir=args.cache_dir).optimize(spec)
    if args.json:
        _print_report(result.to_json())
        return 0
    print(result.summary())
    print(f"search: {result.search.steps} steps, "
          f"{result.search.evaluations} evaluations, "
          f"{result.search.seconds:.2f}s")
    print()
    print(result.hash_function.describe())
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from repro.api.report import search_report
    from repro.profiling.conflict_profile import profile_trace
    from repro.search import hill_climb_front

    spec = _spec_from_args(args)
    trace = spec.trace.resolve()
    geometry = spec.geometry.resolve()
    family = spec.search.resolve_family(geometry.index_bits)
    strategy = spec.search.resolve_strategy()
    profile = profile_trace(trace, geometry, spec.search.n)
    front = hill_climb_front(
        profile, family, restarts=spec.search.restarts, seed=spec.search.seed,
        max_steps=spec.search.max_steps, strategy=strategy,
    )
    if args.json:
        _print_report(search_report(spec, front))
        return 0
    best = min(front, key=lambda result: result.estimated_misses)
    print(f"{trace.name} @ {geometry}: family {family.name}, "
          f"strategy {strategy.name}")
    for i, result in enumerate(front):
        label = "conventional" if i == 0 else f"restart {i}"
        marker = " <- best" if result is best else ""
        print(f"  {label:>12}: est {result.estimated_misses} "
              f"(from {result.start_misses}), {result.steps} steps, "
              f"{result.evaluations} evaluations, "
              f"{result.seconds:.2f}s{marker}")
    print()
    print(best.function.describe())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.api.report import profile_report
    from repro.pipeline.artifact_cache import cache_events
    from repro.profiling.sharded import run_sharded_profile

    if args.trace_file is not None:
        if args.suite or args.name:
            raise SpecError(
                "profile takes either a registry workload (suite + "
                "name) or --trace-file, not both",
                field="trace.path",
            )
        trace_spec = TraceSpec(
            path=args.trace_file, format=args.format, kind=args.kind
        )
    else:
        if not args.suite or not args.name:
            raise SpecError(
                "name a workload (repro profile <suite> <name>) or an "
                "on-disk trace (--trace-file PATH)"
            )
        if args.format:
            raise SpecError(
                "--format only applies to --trace-file",
                field="trace.format",
            )
        trace_spec = TraceSpec(
            suite=args.suite, benchmark=args.name, kind=args.kind,
            scale=args.scale, seed=args.seed,
        )
    spec = ExperimentSpec(
        trace=trace_spec,
        geometry=GeometrySpec(
            cache_bytes=args.cache_kb * 1024, block_size=args.block_size
        ),
        search=SearchSpec(n=args.n),
        execution=ExecutionSpec(
            shard_size=args.shard_size, workers=args.workers,
            cache_dir=args.cache_dir, **_resilience_overrides(args),
        ),
    )
    session = Session(cache_dir=args.cache_dir, workers=args.workers)
    # Through the trace memo: a warm single-pass replay never runs
    # the workload kernel.
    trace = session.context().trace(spec.trace)
    geometry = spec.geometry.resolve()
    with cache_events() as events:
        result = run_sharded_profile(
            trace, geometry, spec.search.n,
            shard_size=spec.execution.shard_size,
            workers=spec.execution.workers,
            context=session.context(),
            retries=spec.execution.retries,
            task_timeout=spec.execution.task_timeout,
            on_error=spec.execution.on_error,
        )
    profile = result.profile
    sharded = result if spec.execution.shard_size is not None else None
    if args.json:
        _print_report(
            profile_report(
                spec, profile, trace_digest=trace.digest, sharded=sharded
            )
        )
    else:
        print(f"{trace.name or spec.trace.label} @ {geometry}, "
              f"window n={spec.search.n}")
        print(f"  accesses:         {profile.accesses}")
        print(f"  compulsory:       {profile.compulsory}")
        print(f"  capacity:         {profile.capacity}")
        print(f"  beyond window:    {profile.beyond_window}")
        print(f"  conflict weight:  {profile.total_weight} over "
              f"{profile.num_distinct_vectors} distinct vectors")
        if sharded is not None:
            print(f"  sharding:         {len(sharded.plan)} shard(s) x "
                  f"{sharded.plan.shard_size} accesses, "
                  f"workers {sharded.workers}, "
                  f"{sharded.recomputed_shards} recomputed / "
                  f"{sharded.cached_shards} cached, {sharded.seconds:.2f}s")
    return _check_replayed(
        args,
        events,
        f" ({result.recomputed_shards} shard(s) and "
        f"{result.recomputed_scans} scan(s) recomputed)",
    )


def cmd_run(args: argparse.Namespace) -> int:
    from repro.pipeline.artifact_cache import cache_events

    spec = ExperimentSpec.load(args.spec_file)
    if args.cache_dir:
        spec = spec.with_execution(cache_dir=args.cache_dir)
    overrides = _resilience_overrides(args)
    if overrides:
        spec = spec.with_execution(**overrides)
    if args.dry_run:
        print(f"spec ok: {spec.describe()}")
        print(f"digest:  {spec.digest}")
        return 0
    with Session(
        cache_dir=spec.execution.cache_dir,
        workers=args.workers if args.workers is not None
        else spec.execution.workers,
    ) as session, cache_events() as events:
        result = session.optimize(spec)
    if args.json:
        _print_report(result.to_json())
    else:
        print(result.summary())
        print()
        print(result.hash_function.describe())
    return _check_replayed(args, events)


def cmd_spec(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        trace=TraceSpec(
            suite=args.suite, benchmark=args.benchmark, kind=args.kind,
            scale=args.scale, seed=args.seed,
        ),
        geometry=GeometrySpec(cache_bytes=args.cache_kb * 1024),
        search=SearchSpec(
            family=args.family, strategy=args.strategy,
            restarts=args.restarts, guard=args.guard,
        ),
        execution=ExecutionSpec(
            workers=args.workers, cache_dir=args.cache_dir
        ),
    )
    text = spec.to_toml(
        header=(
            "repro experiment spec (schema: see `repro run --help`)\n"
            f"{spec.describe()}\n"
            "run with:  repro run <this file> [--json]"
        )
    )
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    from repro.cache.classify import classify_misses
    from repro.workloads.registry import get_workload

    trace = get_workload(args.suite, args.name, args.scale, args.seed).trace(args.kind)
    geometry = GeometrySpec(cache_bytes=args.cache_kb * 1024).resolve()
    blocks = trace.block_addresses(geometry.block_size)
    breakdown = classify_misses(blocks, geometry)
    print(f"{trace.name} ({args.kind}) @ {geometry}")
    print(breakdown.format())
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    for suite in sorted(WORKLOADS):
        print(f"{suite}:")
        for name in WORKLOADS[suite]:
            print(f"  {name}")
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    from repro.backend import BACKEND_ENV_VAR, backend_status

    rows = backend_status()
    if getattr(args, "json", False):
        print(json.dumps({"backends": rows}, indent=2))
        return 0
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        marker = "*" if row["active"] else " "
        state = "available" if row["available"] else "unavailable"
        print(
            f"{marker} {row['name'].ljust(width)}  {state:<11}  "
            f"{row['description']}"
        )
    print(
        f"\n* = active (override with {BACKEND_ENV_VAR}=<name> or a "
        "spec's execution.backend)"
    )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.pipeline.artifact_cache import default_cache_dir
    from repro.pipeline.campaign import format_campaign

    specs = expand_grid(
        {
            "suite": args.suite,
            "benchmarks": list(args.benchmarks) if args.benchmarks else None,
            "kinds": list(args.kinds),
            "cache_bytes": [kb * 1024 for kb in args.cache_kb],
            "families": list(args.families),
            "strategies": [args.strategy],
            "scale": args.scale,
            "workload_seed": args.seed,
            "guard": args.guard,
        }
    )
    if not specs:
        print("error: the campaign grid is empty", file=sys.stderr)
        return 2
    overrides = _resilience_overrides(args)
    if overrides:
        specs = [spec.with_execution(**overrides) for spec in specs]
    session = Session(
        cache_dir=args.cache_dir if args.cache_dir else default_cache_dir(),
        workers=args.workers,
    )
    # Grid semantics: every cell derives its own deterministic seed
    # from its identity and --seed, as before the spec API existed.
    result = session.campaign(specs, base_seed=args.seed, derive_seeds=True)
    report = result.to_json()
    if args.json == "-":
        _print_report(report)
    else:
        print(format_campaign(result))
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
            print(f"wrote {args.json}")
    if args.expect_cached and not result.fully_cached:
        failed = result.failed_rows
        if failed:
            reason = f"{len(failed)} cell(s) failed: " + "; ".join(
                row.spec.describe() for row in failed
            )
        else:
            totals = result.cache_totals()
            reason = (
                f"{totals['misses']} artifact(s) were recomputed "
                f"({totals['stores']} stored)"
            )
        print(f"FAIL: expected a fully cached replay but {reason}", file=sys.stderr)
        return 1
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments import (
        format_counting,
        format_general_vs_perm,
        format_table1,
        format_table2,
        format_table3,
        run_general_vs_perm,
        run_table2,
        run_table3,
    )
    from repro.pipeline.context import PipelineContext

    which = set(args.only) if args.only else {"counting", "table1", "table2", "table3", "general-vs-perm"}
    context = PipelineContext(args.cache_dir) if args.cache_dir is not None else None
    try:
        if "counting" in which:
            print(format_counting())
            print()
        if "table1" in which:
            print(format_table1())
            print()
        if "general-vs-perm" in which:
            print(format_general_vs_perm(
                run_general_vs_perm(
                    scale=args.scale, workers=args.workers, context=context)))
            print()
        if "table2" in which:
            for kind in ("data", "instruction"):
                print(format_table2(run_table2(
                    kind=kind, scale=args.scale, workers=args.workers,
                    context=context)))
                print()
        if "table3" in which:
            print(format_table3(run_table3(
                scale=args.scale, workers=args.workers, context=context)))
    finally:
        if context is not None:
            context.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import gc

    from repro.serve import ReproServer

    # Session workers stay None so each spec's own execution.workers
    # governs sharded profiling; --workers bounds the job thread pool.
    session = Session(cache_dir=args.cache_dir, storage=args.storage)
    server = ReproServer(
        session=session,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        retries=args.retries,
        own_session=True,
    )
    # Move the start-up heap to the permanent generation: a full
    # collection then skips it instead of pausing the event loop to
    # scan it again every few hundred requests.
    gc.freeze()
    server.run()
    return 0


def _args_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec_file", help="path to experiment.toml / .json")
    parser.add_argument(
        "--dry-run", action="store_true",
        help="validate the spec and print what it would run, then exit",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the repro-report/v1 result to stdout",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="override the spec's execution.cache_dir",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="override the spec's execution.workers",
    )
    parser.add_argument(
        "--expect-cached", action="store_true",
        help="exit non-zero if any artifact had to be (re)computed",
    )
    _add_resilience_args(parser)


def _args_spec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--suite", choices=sorted(WORKLOADS), default="mibench")
    parser.add_argument("--benchmark", default="fft")
    parser.add_argument("--kind", choices=TRACE_KINDS, default="data")
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument("--cache-kb", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--family", default="2-in", choices=FAMILY_CHOICES)
    parser.add_argument("--strategy", default="steepest")
    parser.add_argument("--restarts", type=int, default=0)
    parser.add_argument("--guard", action="store_true")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument(
        "-o", "--output", default=None,
        help="write the spec here instead of stdout",
    )


def _args_optimize(parser: argparse.ArgumentParser) -> None:
    _add_workload_args(parser)
    parser.add_argument("--family", default="2-in", choices=FAMILY_CHOICES)
    parser.add_argument(
        "--guard", action="store_true",
        help="revert to modulo indexing if the function adds misses (Sec. 6)",
    )
    parser.add_argument(
        "--strategy", default="steepest",
        help="search strategy: steepest (paper), first-improvement, "
             "beam[:K], anneal[:ITERS[:SEED]], branch-bound[:NODES] "
             "(certified optimum), portfolio[:K] (lockstep race)",
    )
    parser.add_argument("--restarts", type=int, default=0)
    parser.add_argument(
        "--search-seed", type=int, default=0, help="hill-climb restart seed"
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="read/write artifacts at this directory",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the repro-report/v1 result to stdout",
    )


def _args_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "suite", nargs="?", choices=sorted(WORKLOADS), default=None,
        help="benchmark suite (omit when using --trace-file)",
    )
    parser.add_argument(
        "name", nargs="?", default=None,
        help="kernel name (see `workloads`)",
    )
    parser.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="profile an on-disk trace instead of a registry workload "
             "(.bin memory-maps out of core; npz/text/dinero/lackey load "
             "through their readers)",
    )
    parser.add_argument(
        "--format", default=None, choices=TRACE_FORMATS,
        help="trace-file format (default: inferred from the suffix)",
    )
    parser.add_argument(
        "--kind", choices=TRACE_KINDS, default="data",
        help="which address stream to use",
    )
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--cache-kb", type=int, default=4, help="cache size in KB")
    parser.add_argument("--block-size", type=int, default=4)
    parser.add_argument(
        "--n", type=int, default=16,
        help="conflict-window length (paper's n)",
    )
    parser.add_argument(
        "--shard-size", type=int, default=None,
        help="run the out-of-core sharded driver with this many "
             "accesses per shard (bit-identical to the single pass)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process count for sharded profiling (1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="read/write the profile and per-shard artifacts at this "
             "directory",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the repro-report/v1 profile report to stdout",
    )
    parser.add_argument(
        "--expect-cached", action="store_true",
        help="exit non-zero if any shard had to be (re)computed "
             "(CI warm-cache check)",
    )
    _add_resilience_args(parser)


def _args_search(parser: argparse.ArgumentParser) -> None:
    _add_workload_args(parser)
    parser.add_argument("--family", default="2-in", choices=FAMILY_CHOICES)
    parser.add_argument(
        "--strategy", default="steepest",
        help="search strategy: steepest (paper), first-improvement, "
             "beam[:K], anneal[:ITERS[:SEED]], branch-bound[:NODES] "
             "(certified optimum), portfolio[:K] (lockstep race)",
    )
    parser.add_argument(
        "--restarts", type=int, default=0,
        help="random restarts beyond the conventional start "
             "(advanced in lockstep for point strategies)",
    )
    parser.add_argument(
        "--search-seed", type=int, default=0, help="hill-climb restart seed"
    )
    parser.add_argument(
        "--max-steps", type=int, default=None,
        help="bound on accepted search steps",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the repro-report/v1 search front to stdout",
    )


def _args_backends(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit the status rows as JSON"
    )


def _args_campaign(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--suite", choices=sorted(WORKLOADS), default="mibench")
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="kernel names (default: the whole suite)",
    )
    parser.add_argument(
        "--kinds", nargs="*", choices=TRACE_KINDS, default=["data"]
    )
    parser.add_argument(
        "--cache-kb", nargs="*", type=int, default=[1, 4, 16],
        help="cache sizes in KB",
    )
    parser.add_argument(
        "--families", nargs="*", default=["2-in"], choices=FAMILY_CHOICES,
    )
    parser.add_argument(
        "--strategy", default="steepest",
        help="search strategy for every task (default: the paper's "
             "steepest descent)",
    )
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--guard", action="store_true")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process count (default: one per core; 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-xor-indexing)",
    )
    parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="FILE",
        help="emit the repro-report/v1 campaign report: bare --json "
             "prints to stdout, --json FILE writes the file",
    )
    parser.add_argument(
        "--expect-cached", action="store_true",
        help="exit non-zero if any artifact had to be (re)computed "
             "(CI warm-cache check)",
    )
    _add_resilience_args(parser)


def _args_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8738,
        help="TCP port (default 8738; 0 picks a free port)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact-cache root shared by every job (and, with sqlite "
        "storage, by other service replicas); default: in-memory only",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="job worker threads (default 2)",
    )
    parser.add_argument(
        "--storage", choices=("local", "sqlite"), default="sqlite",
        help="cache storage backend (default sqlite: one WAL-journaled "
        "index safe for many concurrent replicas; pass local to reuse an "
        "existing directory-layout cache)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="max jobs in flight before submissions get 503 (default 64)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="default retry budget for jobs whose spec sets none",
    )


def _args_tables(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="tiny"
    )
    parser.add_argument(
        "--only", nargs="*", default=None,
        choices=("counting", "table1", "table2", "table3", "general-vs-perm"),
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process count for the table grids (1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="run all drivers through an artifact cache at this directory",
    )


#: The subcommands, in help order: name -> (help, argument builder, handler).
_COMMANDS = {
    "run": ("execute a TOML/JSON experiment-spec file", _args_run, cmd_run),
    "spec": ("scaffold an experiment-spec file from flags", _args_spec, cmd_spec),
    "optimize": ("construct an index function", _args_optimize, cmd_optimize),
    "profile": (
        "conflict-vector profile (Fig. 1) for a workload or trace file",
        _args_profile,
        cmd_profile,
    ),
    "search": (
        "estimate-only hash search with a pluggable strategy",
        _args_search,
        cmd_search,
    ),
    "classify": ("three-Cs miss breakdown", _add_workload_args, cmd_classify),
    "workloads": ("list bundled kernels", None, cmd_workloads),
    "backends": (
        "list compute backends and the active one",
        _args_backends,
        cmd_backends,
    ),
    "campaign": (
        "run a benchmark x cache x family grid through the artifact cache",
        _args_campaign,
        cmd_campaign,
    ),
    "serve": (
        "long-lived HTTP optimization service (POST specs, GET reports)",
        _args_serve,
        cmd_serve,
    ),
    "tables": ("regenerate paper tables", _args_tables, cmd_tables),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    Given a known ``command``, only that subcommand's parser is built:
    building all eleven costs several milliseconds of every start-up.
    What it prints (help, usage, errors) reads the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Application-specific reconfigurable XOR-indexing (DATE 2006 reproduction)",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # The choices as argparse prints them, so the usage line does not
    # shrink to the one subcommand built.
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        summary, add_arguments, func = _COMMANDS[name]
        subparser = sub.add_parser(name, help=summary)
        if add_arguments is not None:
            add_arguments(subparser)
        subparser.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except SpecError as error:
        return _fail(error)


if __name__ == "__main__":
    sys.exit(main())

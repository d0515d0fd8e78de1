"""The three benchmark workloads and the per-layer metrics of a traced run.

Each workload function takes a :class:`Bench` and returns a
:class:`Outcome`: end-to-end values, the per-layer values of a traced
run, attempt/failure counts and the raw samples behind every median.
Everything timed runs in a child interpreter (``child.py``,
``python -m repro``, or ``traced_repro.py`` when tracing); the ``run.py``
process imports ``repro`` only for ``serve-zipf``'s HTTP client.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path

import stats
import tracer

HERE = Path(__file__).resolve().parent

#: Every wait of a run ends by this many seconds after it started.
RUN_LIMIT_S = 170
#: Fresh-process replays of ``table2-campaign`` cells per kernel.
REPLAYS_PER_KERNEL = 3
#: Job-status poll intervals, well below each phase's job time: hits take
#: ~4 ms, cold jobs ~100 ms.  Polling the cold phase every 1 ms added 6 %
#: of GIL-contended request handling to its wall time, and its noise.
HIT_POLL_S = 0.001
COLD_POLL_S = 0.01
#: Fresh servers that each run the ``serve-zipf`` cold phase.
COLD_PASSES = 3
#: Percentile of hit latency reported as ``serve-zipf``'s ``warm_ms``.  Above
#: it, latency is mostly host scheduling of the server's threads and the
#: client on 2 cores: while the host was busy, the median hit latency over
#: ten runs spread by 0.52 of itself and the 10th percentile by 0.13.
HIT_PERCENTILE = 10
#: Zipf exponent of the ``serve-zipf`` hit-phase stream.
ZIPF_S = 1.1
#: Alternating traced/untraced blocks that estimate serve tracing overhead.
OVERHEAD_BLOCKS = 4
OVERHEAD_BLOCK_S = 1.0

MIBENCH = (
    "dijkstra", "fft", "jpeg_enc", "jpeg_dec", "lame", "rijndael", "susan",
    "adpcm_dec", "adpcm_enc", "mpeg2_dec",
)
POWERSTONE = (
    "adpcm", "bcnt", "blit", "compress", "crc", "des", "engine", "fir",
    "g3fax", "jpeg", "pocsag", "qurt", "ucbqsort", "v42",
)


def serve_specs() -> list[dict]:
    """68 distinct ``tiny`` specs: mibench x {1,4} KB x {2,4}-in plus
    powerstone x {1,4} KB x 2-in."""
    cells = [
        ("mibench", kernel, kb, family)
        for kernel in MIBENCH
        for kb in (1, 4)
        for family in ("2-in", "4-in")
    ] + [("powerstone", kernel, kb, "2-in") for kernel in POWERSTONE for kb in (1, 4)]
    return [
        {
            "trace": {"suite": suite, "benchmark": kernel, "scale": "tiny"},
            "geometry": {"cache_bytes": kb * 1024},
            "search": {"family": family},
        }
        for suite, kernel, kb, family in cells
    ]


@dataclass
class Outcome:
    e2e: dict
    layers: dict | None
    attempted: int
    failed: int
    samples: dict
    notes: list = field(default_factory=list)
    breakdown: dict = field(default_factory=dict)


class Bench:
    """One run's settings, scratch directory and child processes."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.procs: list[subprocess.Popen] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self._logs = 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        # Bytecode is cached inside the checkout, as an installed package
        # would have it, so imports are timed without recompilation.
        env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_work" / "pycache")
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        # Temporary files (the sqlite storage's spool) stay in the checkout.
        env["TMPDIR"] = str(work / "tmp")
        (work / "tmp").mkdir()
        self.env = env

    # -- processes ---------------------------------------------------------

    def spawn(self, args: list[str], stdin=None) -> subprocess.Popen:
        self._logs += 1
        log = open(self.work / f"stderr-{self._logs}.log", "w")
        try:
            proc = subprocess.Popen(
                [sys.executable, *map(str, args)],
                cwd=self.root,
                env=self.env,
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        finally:
            log.close()
        proc.log = self.work / f"stderr-{self._logs}.log"
        self.procs.append(proc)
        return proc

    def failure(self, proc: subprocess.Popen, what: str) -> RuntimeError:
        text = Path(proc.log).read_text()[-2000:] if Path(proc.log).exists() else ""
        return RuntimeError(f"{what} (exit {proc.poll()}):\n{text}")

    def _timeout(self, timeout: float) -> float:
        return max(0.0, min(timeout, self.deadline - time.monotonic()))

    def read_until(self, proc: subprocess.Popen, marker: str, timeout: float = 60) -> str:
        deadline = time.monotonic() + self._timeout(timeout)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise self.failure(proc, f"no {marker!r} line in {timeout}s")
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = proc.stdout.readline()
            if not line:
                proc.wait()
                raise self.failure(proc, f"process ended before {marker!r}")
            if marker in line:
                return line

    def finish(self, proc: subprocess.Popen, timeout: float = RUN_LIMIT_S) -> str:
        try:
            out, _ = proc.communicate(timeout=self._timeout(timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise self.failure(proc, f"timed out after {timeout}s")
        return out

    def child(self, task: str, *options, timeout: float = RUN_LIMIT_S):
        """Run a ``child.py`` task; returns (spawn-to-READY s, READY info, result)."""
        out = self.work / f"{task}-{self._logs + 1}.json"
        t0 = time.perf_counter()
        proc = self.spawn([HERE / "child.py", task, "--out", out, *options])
        line = self.read_until(proc, "READY ", timeout)
        ready_s = time.perf_counter() - t0
        self.finish(proc, timeout)
        if proc.returncode != 0:
            raise self.failure(proc, f"child {task} failed")
        return ready_s, json.loads(line.split(" ", 1)[1]), json.loads(out.read_text())

    def probe(self, timed: bool = True) -> None:
        """One fresh ``import repro`` + ``Session`` launch; its spawn-to-ready
        and import seconds go to ``setup_s`` and ``import_s``.  The first,
        untimed launch fills the bytecode cache.  Workloads spread their
        probes over the run, so one slow stretch of the host moves a
        minority of them."""
        ready_s, info, _ = self.child("probe", "--cache-dir", self.work / f"probe-{len(self.procs)}")
        if timed:
            self.setup_s.append(ready_s)
            self.import_s.append(info["import_s"])

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.communicate(timeout=30)
            except (subprocess.TimeoutExpired, ValueError):
                proc.wait()


# -- per-layer metrics -------------------------------------------------------

#: Per-layer metric -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "import.s": "s",
    "workloads.s": "s",
    "workloads.calls": "count",
    "trace.s": "s",
    "profiling.s": "s",
    "profiling.calls": "count",
    "profiling.accesses_per_s": "1/s",
    "profiling.pairs_per_s": "1/s",
    "profiling.rss_mb": "MB",
    "search.s": "s",
    "search.calls": "count",
    "search.evaluations": "count",
    "search.evals_per_s": "1/s",
    "engine.s": "s",
    "engine.calls": "count",
    "engine.accesses_per_s": "1/s",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.quarantined": "count",
    "cache.hit_ratio": "ratio",
    "campaign.task_s_p50": "s",
    "campaign.task_s_max": "s",
    "api.parse_ms": "ms",
    "api.digest_ms": "ms",
    "api.report_ms": "ms",
    "serve.queue_ms": "ms",
    "serve.run_ms": "ms",
    "serve.http_ms": "ms",
    "serve.polls_per_job": "count",
    "trace_overhead_pct": "%",
}


def merge(*aggregates: dict) -> dict:
    total: dict[str, dict] = {}
    for agg in aggregates:
        for layer, entry in agg.items():
            into = total.setdefault(layer, {})
            for key, value in entry.items():
                if key == "rss_mb":
                    into[key] = max(into.get(key, 0.0), value)
                else:
                    into[key] = into.get(key, 0) + value
    return total


def require(agg: dict, phase: str, layers, zero=()) -> None:
    """Fail loudly when a layer expected to run recorded no call (a
    renamed function must not read as 0 s), or one expected idle ran."""
    for layer in layers:
        if not agg.get(layer, {}).get("calls"):
            raise RuntimeError(f"{phase}: layer {layer!r} recorded zero calls")
    for layer in zero:
        if agg.get(layer, {}).get("calls"):
            raise RuntimeError(f"{phase}: layer {layer!r} ran but should be idle")


def layer_metrics(agg: dict, **extra) -> dict:
    def get(layer, key):
        return agg.get(layer, {}).get(key, 0)

    def rate(layer, key):
        busy = get(layer, "busy_s")
        return get(layer, key) / busy if busy else 0.0

    def per_call_ms(layer):
        calls = get(layer, "calls")
        return 1000 * get(layer, "self_s") / calls if calls else 0.0

    hits, misses = get("cache.load", "hit"), get("cache.load", "miss")
    values = {
        "workloads.s": get("workloads", "self_s"),
        "workloads.calls": get("workloads", "calls"),
        "trace.s": get("trace", "self_s"),
        "profiling.s": get("profiling", "self_s"),
        "profiling.calls": get("profiling", "calls"),
        "profiling.accesses_per_s": rate("profiling", "accesses"),
        "profiling.pairs_per_s": rate("profiling", "pairs"),
        "profiling.rss_mb": get("profiling", "rss_mb"),
        "search.s": get("search", "self_s"),
        "search.calls": get("search", "calls"),
        "search.evaluations": get("search", "evaluations"),
        "search.evals_per_s": rate("search", "evaluations"),
        "engine.s": get("engine", "self_s"),
        "engine.calls": get("engine", "calls"),
        "engine.accesses_per_s": rate("engine", "accesses"),
        "cache.load_s": get("cache.load", "self_s"),
        "cache.store_s": get("cache.store", "self_s"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.stores": get("cache.store", "store"),
        "cache.quarantined": get("cache.load", "quarantined"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "api.parse_ms": per_call_ms("api.parse"),
        "api.digest_ms": per_call_ms("api.digest"),
        "api.report_ms": per_call_ms("api.report"),
        "campaign.task_s_p50": 0.0,
        "campaign.task_s_max": 0.0,
        "serve.queue_ms": 0.0,
        "serve.run_ms": 0.0,
        "serve.http_ms": 0.0,
        "serve.polls_per_job": 0.0,
    }
    values.update(extra)
    missing = set(LAYER_UNITS) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: values[name] for name in LAYER_UNITS}


def self_times(agg: dict) -> dict:
    """Self seconds per layer, largest first."""
    return dict(
        sorted(((k, v["self_s"]) for k, v in agg.items()), key=lambda kv: -kv[1])
    )


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    return 100 * (stats.median(traced) / stats.median(untraced) - 1)


def warm_metrics(samples_s: list[float], wall_s: float, percentile: float = 50) -> dict:
    """``warm_ms`` is the given percentile of the warm samples, the median
    unless a workload says otherwise."""
    warm_tail, tail_percentile = stats.tail(samples_s)
    return {
        "warm_ms": 1000 * stats.percentile(samples_s, percentile),
        "warm_ms_tail": 1000 * warm_tail,
        "throughput_rps": len(samples_s) / wall_s,
        "_tail_percentile": tail_percentile,
    }


# -- table2-campaign ---------------------------------------------------------


def _replay_matches(report: dict, row: dict) -> bool:
    return (
        report["digests"]["spec"] == row["digests"]["spec"]
        and report["baseline"]["misses"] == row["base_misses"]
        and report["optimized"]["misses"] == row["optimized_misses"]
        and report["removed_percent"] == row["removed_percent"]
    )


def _replay(b: Bench, row: dict, cache: Path, n: int, plain: list, traced: list,
            span_files: list) -> int:
    """Replay one campaign cell in a fresh ``repro run --expect-cached``
    process (and, in a traced run, once more traced); returns failures."""
    spec = dict(row["spec"], execution=dict(row["spec"]["execution"], cache_dir=str(cache)))
    spec_path = b.work / f"replay-{n}.json"
    spec_path.write_text(json.dumps(spec))
    args = ["run", spec_path, "--expect-cached", "--json"]
    variants = [False, True] if b.trace else [False]
    if n % 2:
        variants.reverse()
    failed = 0
    for traced_run in variants:
        if traced_run:
            spans = b.work / f"replay-{n}.spans"
            span_files.append(spans)
            cmd = [HERE / "traced_repro.py", spans, *args]
        else:
            cmd = ["-m", "repro", *args]
        t0 = time.perf_counter()
        proc = b.spawn(cmd)
        out = b.finish(proc, timeout=60)
        elapsed = time.perf_counter() - t0
        (traced if traced_run else plain).append(elapsed)
        try:
            ok = proc.returncode == 0 and _replay_matches(json.loads(out), row)
        except (ValueError, KeyError):
            ok = False
        failed += not ok
    return failed


def table2_campaign(b: Bench) -> Outcome:
    b.probe(timed=False)
    b.probe()
    cache = b.work / "cache"
    out = b.work / "campaign.json"
    options = ["--out", out, "--cache-dir", cache]
    if b.trace:
        options += ["--trace-out", b.work / "campaign.spans"]
    t0 = time.perf_counter()
    proc = b.spawn([HERE / "child.py", "campaign", *options], stdin=subprocess.PIPE)
    kernels = json.loads(b.read_until(proc, "READY ").split(" ", 1)[1])["kernels"]
    b.setup_s.append(time.perf_counter() - t0)

    # The campaign child runs the grid one kernel at a time, each when
    # told to; that kernel's replays follow before the next one starts,
    # so cold and warm samples both cover the whole run.
    rng = random.Random(b.seed)
    rows, plain, traced, span_files = [], [], [], []
    failed = 0
    for k in range(len(kernels)):
        proc.stdin.write("next\n")
        proc.stdin.flush()
        chunk = json.loads(b.read_until(proc, "CHUNK ", RUN_LIMIT_S).split(" ", 1)[1])
        rows += chunk
        for row in rng.sample(chunk, REPLAYS_PER_KERNEL):
            failed += _replay(b, row, cache, len(plain), plain, traced, span_files)
        if k % 3 == 2:
            b.probe()
    b.finish(proc)
    if proc.returncode != 0:
        raise b.failure(proc, "child campaign failed")
    camp = json.loads(out.read_text())
    failed += camp["failed"]
    attempted = len(rows) + len(plain) + len(traced)
    b.probe()

    e2e = {
        "setup_s": stats.median(b.setup_s),
        "cold_s": camp["cold_s"],
        **warm_metrics(plain, sum(plain)),
        "misses_removed_pct": camp["misses_removed_pct"],
        "paper_gap_pp": camp["paper_gap_pp"],
        "peak_rss_mb": camp["peak_rss_mb"],
    }
    layers, breakdown = None, {}
    if b.trace:
        cold = tracer.aggregate(
            tracer.load(b.work / "campaign.spans")["spans"], camp["windows"]["cold"]
        )
        warm = merge(
            *(tracer.aggregate(tracer.load(p)["spans"], [(0, float("inf"))]) for p in span_files)
        )
        require(cold, "cold", ("workloads", "trace", "profiling", "search", "engine",
                               "cache.load", "cache.store"))
        require(warm, "warm", ("api.parse", "api.digest", "api.report", "cache.load"))
        task_s = [row["seconds"] for row in rows]
        layers = layer_metrics(
            merge(cold, warm),
            **{
                "import.s": stats.median(b.import_s),
                "campaign.task_s_p50": stats.median(task_s),
                "campaign.task_s_max": max(task_s),
                "trace_overhead_pct": overhead_pct(traced, plain),
            },
        )
        breakdown = {
            "cold_self_s": self_times(cold),
            "warm_self_ms_per_replay": {
                k: 1000 * v / len(traced) for k, v in self_times(warm).items()
            },
        }
    return Outcome(
        e2e=e2e,
        layers=layers,
        attempted=attempted,
        failed=failed,
        samples={"setup_s": b.setup_s, "import_s": b.import_s, "warm_s": plain,
                 "warm_traced_s": traced, "task_s": [r["seconds"] for r in rows]},
        notes=[f"{len(rows)} cells; paper gap over {camp['paper_groups']} "
               "(size, family) groups of the paper's Table 2 data-cache averages"],
        breakdown=breakdown,
    )


# -- search-sweep -------------------------------------------------------------


def search_sweep(b: Bench) -> Outcome:
    b.probe(timed=False)
    b.probe()
    b.probe()
    options = ["--cache-dir", b.work / "cache", "--seed", b.seed]
    if b.trace:
        options += ["--trace-out", b.work / "sweep.spans"]
    _, info, res = b.child("sweep", *options)
    b.probe()
    b.probe()
    warm = res["warm_s"]
    e2e = {
        "setup_s": stats.median(b.setup_s) + info["prewarm_s"],
        "cold_s": res["cold_s"],
        **warm_metrics(warm, sum(warm)),
        "misses_removed_pct": res["misses_removed_pct"],
        "paper_gap_pp": res["paper_gap_pp"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    layers, breakdown = None, {}
    if b.trace:
        spans = tracer.load(b.work / "sweep.spans")["spans"]
        cold = tracer.aggregate(spans, res["windows"]["cold"])
        warm_agg = tracer.aggregate(spans, res["windows"]["warm"])
        # Profiles are computed in set-up: the timed pass must not profile.
        require(cold, "cold", ("workloads", "trace", "search", "engine", "cache.load",
                               "cache.store"), zero=("profiling",))
        require(warm_agg, "warm", ("cache.load",), zero=("profiling", "search"))
        layers = layer_metrics(
            merge(cold, warm_agg),
            **{
                "import.s": stats.median(b.import_s),
                "trace_overhead_pct": res["trace_overhead_pct"],
            },
        )
        breakdown = {"cold_self_s": self_times(cold), "warm_self_s": self_times(warm_agg)}
    return Outcome(
        e2e=e2e,
        layers=layers,
        attempted=res["attempted"],
        failed=res["failed"],
        samples={"setup_s": b.setup_s, "import_s": b.import_s, "prewarm_s": info["prewarm_s"],
                 "spec_s": res["spec_s"], "warm_s": warm},
        notes=["unvalidated against the paper: 3 kernels at 4 KB; the paper gap "
               "compares the steepest-descent cells only"],
        breakdown=breakdown,
    )


# -- serve-zipf ---------------------------------------------------------------


class Client:
    """Closed-loop load from one connection to a ``repro serve`` endpoint,
    through the package's own :class:`repro.serve.client.ServeClient`."""

    def __init__(self, serve_client):
        self.serve = serve_client

    def job(self, spec: dict, poll_s: float) -> dict:
        """Submit a spec and poll its job every ``poll_s`` until done (not
        ``ServeClient.wait``, whose 50 ms default would quantize latency
        and which does not count polls)."""
        t0 = time.perf_counter()
        job_id = self.serve.submit(spec)["job_id"]
        polls = 0
        while True:
            polls += 1
            job = self.serve.job(job_id)
            if job["state"] == "done":
                break
            if job["state"] == "failed":
                return {"error": f"job failed: {job['error']}"}
            if time.perf_counter() - t0 > 60:
                return {"error": "job not done in 60 s"}
            time.sleep(poll_s)
        return {"latency_s": time.perf_counter() - t0, "polls": polls, "job": job}

    def closed_loop(
        self, specs: list[dict], seconds: float | None = None, poll_s: float = HIT_POLL_S
    ) -> list[dict]:
        """Send ``specs`` in order from one connection, each waiting for
        its job before the next; stop early after ``seconds``.

        One connection, not two: in alternating 2 s blocks against one
        server, block-median hit latency spread by 30 % of its median with
        two connections (two GIL-bound workers and the HTTP loop contending
        on 2 cores) and by 5 % with one.
        """
        deadline = time.perf_counter() + seconds if seconds else None
        results = []
        # The load generator's own collector pauses must not read as
        # server latency.
        gc.disable()
        try:
            for spec in specs:
                if deadline and time.perf_counter() >= deadline:
                    break
                try:
                    results.append(self.job(spec, poll_s))
                except (OSError, ValueError, KeyError, RuntimeError, HTTPException) as error:
                    # RuntimeError covers ServeError, a non-2xx response.
                    results.append({"error": f"{type(error).__name__}: {error}"})
        finally:
            gc.enable()
        return results


def _start_server(b: Bench, cache: Path, traced_out: Path | None = None):
    """Launch ``repro serve`` and wait for its ``listening on`` line."""
    args = ["serve", "--port", "0", "--cache-dir", cache]
    cmd = [HERE / "traced_repro.py", traced_out, *args] if traced_out else ["-m", "repro", *args]
    t0 = time.perf_counter()
    proc = b.spawn(cmd)
    line = b.read_until(proc, "listening on")
    ready_s = time.perf_counter() - t0
    match = re.search(r"http://[\d.]+:(\d+)", line)
    if match is None:
        raise b.failure(proc, f"no port in {line!r}")
    return proc, int(match.group(1)), ready_s


def _stop_server(b: Bench, proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    b.finish(proc, timeout=60)
    if proc.returncode != 0:
        raise b.failure(proc, "repro serve did not exit cleanly on SIGTERM")


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not in /proc status")


def serve_zipf(b: Bench) -> Outcome:
    specs = serve_specs()
    specs_path = b.work / "serve-specs.json"
    specs_path.write_text(json.dumps(specs))
    _, _, oracle = b.child("oracle", "--specs", specs_path)
    # The load generator speaks through the package's own client; its
    # bytecode goes to the benchmark's cache, not into src/.
    sys.pycache_prefix = b.env["PYTHONPYCACHEPREFIX"]
    sys.path.insert(0, b.env["PYTHONPATH"])
    from repro.serve.client import ServeClient

    def probe_server(timed: bool = True) -> None:
        # Set-up is spawn to a server's "listening on" line; the first
        # launch is untimed and fills the bytecode cache.  Launches are
        # spread over the run, as in Bench.probe.
        proc, _, ready_s = _start_server(b, b.work / f"probe-server-{len(b.procs)}")
        _stop_server(b, proc)
        if timed:
            b.setup_s.append(ready_s)

    probe_server(timed=False)
    # The cold phase runs COLD_PASSES times, each against a fresh server
    # with an empty cache; the last server goes on to the hit phase.
    spans_path = b.work / "server.spans" if b.trace else None
    cold_passes, peaks = [], []
    for n in range(COLD_PASSES):
        last = n == COLD_PASSES - 1
        cache = b.work / f"cache-{n}"
        server, port, ready_s = _start_server(b, cache, spans_path if last else None)
        b.setup_s.append(ready_s)
        client = Client(ServeClient(port=port))
        cold_start = time.monotonic()
        cold_passes.append(client.closed_loop(specs, poll_s=COLD_POLL_S))
        cold_end = time.monotonic()
        if not last:
            peaks.append(_vm_hwm_mb(server.pid))
            _stop_server(b, server)
    cold = [result for cold_pass in cold_passes for result in cold_pass]

    rng = random.Random(b.seed)
    ranking = list(range(len(specs)))
    rng.shuffle(ranking)
    weights = [1 / (rank + 1) ** ZIPF_S for rank in range(len(specs))]
    stream = rng.choices(ranking, weights, k=max(1000, int(b.seconds * 2000)))
    hit_start = time.monotonic()
    hits = client.closed_loop([specs[i] for i in stream], seconds=b.seconds)
    hit_end = time.monotonic()
    peaks.append(_vm_hwm_mb(server.pid))

    overhead = None
    if b.trace:
        plain, plain_port, _ = _start_server(b, cache)
        plain_client = Client(ServeClient(port=plain_port))
        plain_client.closed_loop(specs)  # fill its in-process memo, as the traced one has
        latencies = {True: [], False: []}
        for block in range(OVERHEAD_BLOCKS):
            for traced_server in ((True, False) if block % 2 == 0 else (False, True)):
                target = client if traced_server else plain_client
                done = target.closed_loop([specs[i] for i in stream], OVERHEAD_BLOCK_S)
                latencies[traced_server] += [r["latency_s"] for r in done if "job" in r]
        _stop_server(b, plain)
        overhead = overhead_pct(latencies[True], latencies[False])
    _stop_server(b, server)
    probe_server()

    # Correctness: every request succeeded, every hit was served from the
    # cache, and every distinct report equals the independent oracle's.
    failed = 0
    distinct: dict[str, set[str]] = {}
    for result in cold + hits:
        if "job" not in result:
            failed += 1
            continue
        report = result["job"]["report"]
        distinct.setdefault(report["digests"]["spec"], set()).add(
            json.dumps(stats.normalize_report(report), sort_keys=True)
        )
    failed += sum(1 for r in hits if "job" in r and r["job"]["cached"] is not True)
    expected = {d: json.dumps(r, sort_keys=True) for d, r in oracle["reports"].items()}
    failed += sum(
        1 for digest, seen in distinct.items() for text in seen if expected.get(digest) != text
    )
    failed += max(0, len(specs) - len(distinct))  # a spec never served

    served = [r["job"] for r in hits if "job" in r]
    latencies_s = [r["latency_s"] for r in hits if "job" in r]
    cold_reports = [r["job"]["report"] for r in cold_passes[-1] if "job" in r]
    # Each spec's fastest cold submission: a slow stretch of the host
    # must cover the same spec in every pass to move the sum.
    per_spec = [
        min(r.get("latency_s", float("inf")) for r in results)
        for results in zip(*cold_passes)
    ]
    e2e = {
        "setup_s": stats.median(b.setup_s),
        "cold_s": sum(per_spec),
        **warm_metrics(latencies_s, hit_end - hit_start, HIT_PERCENTILE),
        "misses_removed_pct": statistics.fmean(r["removed_percent"] for r in cold_reports),
        "paper_gap_pp": stats.paper_gap(
            [
                (r["spec"]["trace"]["kind"], r["spec"]["geometry"]["cache_bytes"] // 1024,
                 r["spec"]["search"]["family"], r["removed_percent"])
                for r in cold_reports
                if r["spec"]["trace"]["suite"] == "mibench"
            ],
            oracle["paper"],
        )[0],
        # One server's peak is bimodal: 11 of 30 servers over ten runs read
        # ~268 MB, the others ~234 MB.  The smallest of three is steady.
        "peak_rss_mb": min(peaks),
    }
    queue_ms = [1000 * (j["started"] - j["created"]) for j in served]
    run_ms = [1000 * (j["finished"] - j["started"]) for j in served]
    http_ms = [
        1000 * (r["latency_s"] - (r["job"]["finished"] - r["job"]["created"]))
        for r in hits if "job" in r
    ]
    polls = [r["polls"] for r in hits if "job" in r]
    layers, breakdown = None, {}
    if b.trace:
        trace_file = tracer.load(spans_path)
        cold_agg = tracer.aggregate(trace_file["spans"], [(cold_start, cold_end)])
        hit_agg = tracer.aggregate(trace_file["spans"], [(hit_start, hit_end)])
        require(cold_agg, "cold", ("profiling", "search", "engine", "cache.store",
                                   "api.parse", "api.digest", "api.report"))
        require(hit_agg, "hit", ("workloads", "trace", "cache.load", "api.parse",
                                 "api.digest", "api.report"), zero=("profiling", "search"))
        layers = layer_metrics(
            merge(cold_agg, hit_agg),
            **{
                "import.s": trace_file["import_s"],
                "serve.queue_ms": stats.median(queue_ms),
                "serve.run_ms": stats.median(run_ms),
                "serve.http_ms": stats.median(http_ms),
                "serve.polls_per_job": statistics.fmean(polls),
                "trace_overhead_pct": overhead,
            },
        )
        jobs = len({j["job_id"] for j in served})
        breakdown = {
            "cold_self_s": self_times(cold_agg),
            "hit_ms_per_request": {
                "latency_mean": 1000 * statistics.fmean(latencies_s),
                "serve.http": statistics.fmean(http_ms),
                "serve.queue": statistics.fmean(queue_ms),
                "serve.run": statistics.fmean(run_ms),
            },
            "hit_self_ms_per_job": {k: 1000 * v / jobs for k, v in self_times(hit_agg).items()},
        }
    return Outcome(
        e2e=e2e,
        layers=layers,
        attempted=len(cold) + len(hits) + len(specs),
        failed=failed,
        samples={"setup_s": b.setup_s, "warm_s": latencies_s, "peak_rss_mb": peaks,
                 "cold_latency_s": [[r.get("latency_s") for r in p] for p in cold_passes],
                 "queue_ms": queue_ms, "run_ms": run_ms, "polls": polls},
        notes=[f"closed loop, 1 connection; {len(cold)} cold + "
               f"{len(hits)} hit requests, {len(distinct)} distinct reports checked; "
               "unvalidated against the paper (tiny traces)"],
        breakdown=breakdown,
    )


WORKLOADS = {
    "table2-campaign": table2_campaign,
    "search-sweep": search_sweep,
    "serve-zipf": serve_zipf,
}

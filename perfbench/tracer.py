"""Per-layer spans recorded from outside the program.

The tracer wraps the public entry point of each layer of ``repro`` (the
functions a layer exposes to the layers above it) and records one span
per call: layer, start, end, self time and a few layer-specific counts.
Nothing under ``src/`` is modified; wrappers are installed by rebinding
the attribute in every loaded ``repro`` module that refers to the
original object, so ``from x import f`` call sites are traced too.

Self time is a span's duration minus the time covered by its direct
child spans on the same thread.  A span nested directly inside a span of
the same layer (``hill_climb_restarts`` calling ``hill_climb_front``)
adds to that layer's self time but is not counted as a separate call.

Timestamps come from ``time.monotonic()``, a system-wide clock on Linux,
so spans from a child process can be attributed to the phases the
benchmark's ``run.py`` timed in its own process.
"""

from __future__ import annotations

import bisect
import importlib
import json
import resource
import sys
import threading
import time

#: (layer, module, attribute path, kind).  kind: "func" (rebound in every
#: repro module holding it), "method", "classmethod" or "property".
TARGETS = (
    ("workloads", "repro.workloads.registry", "get_workload", "func"),
    ("trace", "repro.trace.trace", "Trace.digest", "property"),
    ("trace", "repro.trace.trace", "Trace.block_addresses", "method"),
    ("profiling", "repro.profiling.conflict_profile", "profile_blocks", "func"),
    ("search", "repro.search.hill_climb", "hill_climb_restarts", "func"),
    ("search", "repro.search.hill_climb", "hill_climb_front", "func"),
    ("engine", "repro.cache.engine", "simulate", "func"),
    ("engine", "repro.cache.engine", "evaluate_many", "func"),
    ("cache.load", "repro.pipeline.artifact_cache", "ArtifactCache.load_json", "method"),
    ("cache.load", "repro.pipeline.artifact_cache", "ArtifactCache.load_profile", "method"),
    ("cache.load", "repro.pipeline.artifact_cache", "ArtifactCache.load_arrays", "method"),
    ("cache.store", "repro.pipeline.artifact_cache", "ArtifactCache.store_json", "method"),
    ("cache.store", "repro.pipeline.artifact_cache", "ArtifactCache.store_profile", "method"),
    ("cache.store", "repro.pipeline.artifact_cache", "ArtifactCache.store_arrays", "method"),
    ("api.parse", "repro.api.spec", "ExperimentSpec.from_dict", "classmethod"),
    ("api.digest", "repro.api.spec", "ExperimentSpec.digest", "property"),
    ("api.report", "repro.core.optimizer", "OptimizationResult.to_json", "method"),
)


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _quarantined(cache) -> int:
    return sum(per_kind.get("quarantined", 0) for per_kind in cache.counters.values())


def _counts(layer: str, args: tuple, result) -> dict:
    """Layer-specific work counts of one outermost call."""
    if layer == "profiling":
        return {"accesses": int(len(args[0])), "pairs": int(result.total_weight)}
    if layer == "search":
        results = result if isinstance(result, list) else [result]
        return {"evaluations": sum(int(r.evaluations) for r in results)}
    if layer == "engine":
        results = result if isinstance(result, list) else [result]
        return {"accesses": sum(int(r.accesses) for r in results)}
    if layer == "cache.load":
        return {"hit" if result is not None else "miss": 1}
    if layer == "cache.store":
        return {"store": 1}
    return {}


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            nested = bool(stack) and stack[-1][0] == layer
            frame = [layer, 0.0]
            stack.append(frame)
            rss_before = _rss_mb() if layer == "profiling" and not nested else 0.0
            quarantined = _quarantined(args[0]) if layer == "cache.load" else 0
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
            counts = {} if nested else _counts(layer, args, result)
            if rss_before:
                # Upper bound when an earlier call set the process peak.
                counts["rss_mb"] = _peak_mb() - rss_before
            if layer == "cache.load" and _quarantined(args[0]) > quarantined:
                counts["quarantined"] = _quarantined(args[0]) - quarantined
            with tracer._lock:
                tracer.spans.append(
                    (layer, t0, t1, t1 - t0 - frame[1], nested, counts)
                )
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise if one no longer exists."""
        if self._installed:
            return
        for layer, module_name, path, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if attr not in vars(owner):
                raise RuntimeError(
                    f"trace target {module_name}.{path} no longer exists; "
                    "update perfbench/tracer.py TARGETS"
                )
            original = vars(owner)[attr]
            if kind == "func":
                wrapped = self.wrap(layer, original)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if not (name == "repro" or name.startswith("repro.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            self._installed.append((mod, key, original))
                continue
            if kind == "property":
                wrapped = property(self.wrap(layer, original.fget))
            elif kind == "classmethod":
                wrapped = classmethod(self.wrap(layer, original.__func__))
            else:
                wrapped = self.wrap(layer, original)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (the untraced configuration)."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str, **extra) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as fh:
            json.dump({"spans": spans, **extra}, fh)


def load(path) -> dict:
    """A :meth:`Tracer.dump` file, spans as tuples."""
    with open(path) as fh:
        payload = json.load(fh)
    payload["spans"] = [tuple(span) for span in payload["spans"]]
    return payload


def aggregate(spans, windows) -> dict:
    """Per-layer totals of the spans that start inside any window.

    ``windows`` is a list of disjoint ``(start, end)`` monotonic timestamps.
    Returns ``{layer: {"calls", "self_s", "busy_s", <counts>...}}`` where
    ``busy_s`` sums outermost-call durations (the base for rates).
    """
    windows = sorted(windows)
    starts = [start for start, _ in windows]
    layers: dict[str, dict] = {}
    for layer, t0, t1, self_s, nested, counts in spans:
        i = bisect.bisect_right(starts, t0) - 1
        if i < 0 or t0 >= windows[i][1]:
            continue
        entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
        entry["self_s"] += self_s
        if nested:
            continue
        entry["calls"] += 1
        entry["busy_s"] += t1 - t0
        for key, value in counts.items():
            if key == "rss_mb":
                entry[key] = max(entry.get(key, 0.0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return layers

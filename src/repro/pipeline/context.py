"""The pipeline session: one cache-fronted view of the whole flow.

A :class:`PipelineContext` wraps an :class:`ArtifactCache` (optional —
``cache=None`` gives a purely in-memory session) plus an in-process
memo, and :meth:`~PipelineContext.stage` is the one way a computed
artifact is memoized: each key is served from the memo, else from the
cache, else computed, then stored and memoized.  Every counted
artifact goes through it:

* ``stats`` — :meth:`~PipelineContext.simulate`,
  :meth:`~PipelineContext.baseline`, :meth:`~PipelineContext.evaluate`
  and :meth:`~PipelineContext.evaluate_many` front the exact simulators
  of :mod:`repro.cache.engine`, one indexing scheme per key:
  ``modulo``, ``xor``, or ``skewed`` (a bank list and its replacement
  seed, the skewed-associative cache of
  :func:`~repro.cache.engine.simulate_banks`);
* ``profile`` — :meth:`~PipelineContext.profile_stage` stages the
  merged profiles that :meth:`~PipelineContext.profile` and the Fig. 1
  profile driver, :func:`repro.profiling.run_sharded_profile`, ask for;
  a miss walks the shards (:func:`repro.profiling.sharded.walk_shards`,
  which stages the shard scans unmemoized);
* ``optimization`` — :func:`~repro.core.optimizer.optimize_for_trace`
  stages whole results, unmemoized, so a warm replay skips even the
  hill climb.
* ``optimal-bit-select`` — Table 3's ``opt`` column stages the exact
  optimal bit selection of :func:`repro.search.exhaustive.optimal_bit_select`,
  keyed by trace digest, geometry and ``n``; its misses are a ``stats``
  artifact.

Two uncounted memos record facts about inputs and artifacts, so a
warm replay reads three small JSON records and one verified ``.npz``
entry, parses no array and imports no NumPy:

* the *trace-digest memo*: :meth:`~PipelineContext.trace` maps a spec
  to its trace through it, without running the workload kernel;
* the *profile-digest memo*: a stored profile loads as a
  :class:`~repro.pipeline.artifact_cache.DeferredProfile` whose digest
  keys the optimization record and whose counts are parsed only when
  a stage needs them (see :meth:`ArtifactCache.load_profile
  <repro.pipeline.artifact_cache.ArtifactCache.load_profile>`).

Stages take their context as an explicit ``context=`` argument
(:func:`~repro.core.optimizer.optimize_for_trace`, the table and
extension drivers, :func:`~repro.pipeline.campaign.run_campaign`);
results are bit-identical to a context without a cache (property-tested in
``tests/pipeline``).  :meth:`~PipelineContext.map` is the one way work
fans out: campaign cells, shard scans and profiles, and Table 3 rows
each run as ``task(context, item)``, serially on the context itself or
on a pool whose processes each open one context on the same cache.

Inside a :func:`replay_only` scope nothing is computed: a stage whose
key misses, a trace without a memo record, and a deferred trace asked
for its addresses raise :class:`NotCached` instead, and the probe
counts no miss.  ``repro serve`` answers a cache hit this way on its
event-loop thread.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.api.report import function_to_json, stats_from_json, stats_to_json
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.pipeline.artifact_cache import (
    REPLAY_ONLY,
    ArtifactCache,
    NotCached,
    profile_key,
    stable_key,
)
from repro.trace.trace import DeferredTrace, Trace

if TYPE_CHECKING:
    from repro.api.spec import TraceSpec
    from repro.gf2.hashfn import XorHashFunction
    from repro.pipeline.resilience import TaskOutcome
    from repro.profiling.conflict_profile import ConflictProfile

__all__ = ["NotCached", "PipelineContext", "replay_only"]

#: Storage kind of the trace-digest memo (see :meth:`PipelineContext.trace`).
TRACE_MEMO = "trace-memo"

#: Memo value for a trace generated in this process: the workload
#: registry's in-process cache holds it from then on.
_GENERATED = object()


@contextmanager
def replay_only() -> Iterator[None]:
    """Refuse to compute, in this thread, while the scope is open.

    The first artifact a run would compute raises :class:`NotCached`
    instead, before any compute starts; the checks sit on the miss
    branches, so a hit costs nothing extra.  The probe charges no miss:
    a run that falls back to computing counts its misses once.  Like
    :func:`~repro.pipeline.artifact_cache.cache_events`, the scope
    reaches neither other threads nor pool processes.
    """
    token = REPLAY_ONLY.set(True)
    try:
        yield
    finally:
        REPLAY_ONLY.reset(token)


def geometry_params(geometry: CacheGeometry) -> dict:
    """A geometry as it enters artifact keys."""
    return {
        "size_bytes": geometry.size_bytes,
        "block_size": geometry.block_size,
        "associativity": geometry.associativity,
    }


def _load_stats(cache: ArtifactCache, key: str) -> CacheStats | None:
    payload = cache.load_json("stats", key)
    return None if payload is None else stats_from_json(payload)


def _store_stats(cache: ArtifactCache, key: str, stats: CacheStats) -> None:
    cache.store_json("stats", key, stats_to_json(stats))


def pool_size(workers: int | None, count: int) -> int:
    """The worker count :meth:`PipelineContext.map` resolves for
    ``count`` items: ``None`` picks one per core (at most one per item),
    and at most one item runs serially."""
    if workers is None:
        workers = min(count, os.cpu_count() or 1) or 1
    return 1 if count <= 1 else max(1, workers)


# One context per pool process, opened by the pool initializer (never
# inherited across a fork) and reused for all of the process's tasks:
# its memo then dedups e.g. one profile shared by a benchmark's cells.
_worker_context: "PipelineContext | None" = None


def _open_worker_context(root: str | None, storage: str | None) -> None:
    global _worker_context
    _worker_context = PipelineContext(root, storage=storage)


def _run_in_worker(task: Callable, item: object) -> object:
    return task(_worker_context, item)


class PipelineContext:
    """Session threading one artifact cache through the pipeline."""

    def __init__(
        self,
        cache: ArtifactCache | str | Path | None = None,
        storage: str | None = None,
    ):
        if isinstance(cache, (str, Path)):
            cache = ArtifactCache(cache, storage=storage)
        self.cache = cache
        # In-process memo over the disk store: repeated asks within one
        # session (e.g. one profile shared by three families) cost a
        # dict lookup, not an npz read.
        self._memo: dict[tuple[str, object], object] = {}

    def close(self) -> None:
        """Release the cache's backend resources and drop the memo."""
        if self.cache is not None:
            self.cache.close()
        self._memo.clear()

    @property
    def cache_root(self) -> Path | None:
        return self.cache.root if self.cache is not None else None

    def cache_stats(self) -> dict[str, dict[str, int]]:
        return self.cache.stats() if self.cache is not None else {}

    # -- the one way to run work -------------------------------------------

    def map(
        self,
        task: Callable[["PipelineContext", Any], Any],
        items: Iterable,
        *,
        workers: int | None = 1,
        retries: int = 0,
        task_timeout: float | None = None,
        on_error: str = "raise",
    ) -> list["TaskOutcome"]:
        """``task(context, item)`` for each item, as
        :class:`~repro.pipeline.resilience.TaskOutcome` rows in item
        order, through :func:`~repro.pipeline.resilience.run_resilient`
        (``retries``, ``task_timeout`` and ``on_error`` are its policy).

        One worker (see :func:`pool_size`) runs every item in process
        on this context.  More run on a process pool, at most one per
        item, so ``task`` must pickle (a top-level function or a
        :func:`functools.partial` of one); each pool process opens one
        context on this context's cache root and storage and runs all
        its tasks on it.
        """
        from repro.pipeline.resilience import run_resilient

        items = list(items)
        workers = min(pool_size(workers, len(items)), max(len(items), 1))
        policy = dict(retries=retries, task_timeout=task_timeout, on_error=on_error)
        if workers == 1:
            return run_resilient(partial(task, self), items, workers=1, **policy)
        root = self.cache_root
        return run_resilient(
            partial(_run_in_worker, task),
            items,
            workers=workers,
            initializer=_open_worker_context,
            initargs=(
                str(root) if root is not None else None,
                self.cache.storage_name if self.cache is not None else None,
            ),
            **policy,
        )

    # -- the one way to memoize a stage ------------------------------------

    def stage(
        self,
        kind: str,
        keys: Sequence[str],
        compute: Callable[[list[str]], Iterable[tuple[str, object]]],
        load: Callable[[ArtifactCache, str], object],
        store: Callable[[ArtifactCache, str, object], None],
        memo: bool = True,
        siblings: Sequence[str] = (),
    ) -> dict[str, object]:
        """The values of ``kind`` under ``keys``, by key.

        Each key is served from the memo (``memo=False`` skips it),
        else through ``load(cache, key)``; ``None`` means stored
        nowhere.  Only once every key is looked up does
        ``compute(missing)`` run on the missing keys, in order, plus
        the ``siblings`` not stored yet: keys the same computation
        yields for little extra (a one-pass profile's other
        capacities), looked up only when a key missed.  ``compute``
        returns ``(key, value)`` pairs; each is stored through
        ``store(cache, key, value)`` and memoized, and the result holds
        the siblings it found or computed too.  Under
        :func:`replay_only`, a missing key raises :class:`NotCached`
        instead.
        """
        found: dict[str, object] = {}

        def absent(batch: Sequence[str]) -> list[str]:
            missing = []
            for key in batch:
                value = self._memo.get((kind, key)) if memo else None
                if value is None and self.cache is not None:
                    value = load(self.cache, key)
                    if value is not None and memo:
                        self._memo[(kind, key)] = value
                if value is None:
                    missing.append(key)
                else:
                    found[key] = value
            return missing

        missing = absent(keys)
        if missing:
            if REPLAY_ONLY.get():
                raise NotCached(kind, missing[0])
            # A key asked twice is computed and stored twice, as each
            # ask counted its own miss.
            for key, value in compute(missing + absent(siblings)):
                if self.cache is not None:
                    store(self.cache, key, value)
                if memo:
                    self._memo[(kind, key)] = value
                found[key] = value
        return found

    # -- traces ------------------------------------------------------------

    def _trace_key(self, spec: "TraceSpec") -> str:
        """A registry trace's identity plus the fingerprint of the code
        that generates it, so a memo entry goes stale with that code."""
        from repro.workloads.fingerprint import generator_fingerprint

        return stable_key(
            TRACE_MEMO,
            {
                "suite": spec.suite,
                "benchmark": spec.benchmark,
                "kind": spec.kind,
                "scale": spec.scale,
                "seed": spec.seed,
                "generator": generator_fingerprint(),
            },
        )

    def _memoized_trace(self, spec: "TraceSpec", key: str) -> DeferredTrace | None:
        record = self.cache.load_memo(TRACE_MEMO, key)
        if record is None:
            return None
        try:
            return DeferredTrace(
                spec,
                digest=str(record["digest"]),
                length=int(record["length"]),
                uops=int(record["uops"]),
                name=str(record["name"]),
                kind=str(record["kind"]),
                metadata=dict(record["metadata"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def trace(self, spec: "TraceSpec") -> Trace:
        """The trace ``spec`` names; every pipeline entry point maps a
        spec to its trace through here.

        A registry spec with a cache consults the cache's trace memo: a
        record of the trace's digest, length, uops, name, kind and
        metadata, keyed by the spec and :func:`generator_fingerprint
        <repro.workloads.fingerprint.generator_fingerprint>`.  On a hit it
        returns a :class:`~repro.trace.trace.DeferredTrace`, so stages
        served from the cache never run the workload kernel; a stage
        that needs the addresses generates them then, and they must
        match the recorded digest.  On a miss the trace is generated
        and the record written.  Later asks in the same context read no
        storage: a generated trace comes from the workload registry's
        in-process cache, a deferred one is reused.  The memo holds no
        computed result, so it counts no hit, miss or store.
        File-backed specs and contexts without a cache resolve
        directly.  Under :func:`replay_only`, a missing record raises
        :class:`NotCached`, and so do those two, which would read or
        generate the whole trace.
        """
        if spec.path is not None or self.cache is None:
            if REPLAY_ONLY.get():
                raise NotCached("trace", str(spec.path or self._trace_key(spec)))
            return spec.resolve()
        # In process the spec itself is the key: the fingerprint is fixed.
        found = self._memo.get(("trace", spec))
        if found is None:
            key = self._trace_key(spec)
            found = self._memoized_trace(spec, key)
            if found is None:
                if REPLAY_ONLY.get():
                    raise NotCached(TRACE_MEMO, key)
                trace = spec.resolve()
                self.cache.store_memo(
                    TRACE_MEMO,
                    key,
                    {
                        "digest": trace.digest,
                        "length": len(trace),
                        "uops": trace.uops,
                        "name": trace.name,
                        "kind": trace.kind,
                        "metadata": trace.metadata,
                    },
                )
                self._memo[("trace", spec)] = _GENERATED
                return trace
            self._memo[("trace", spec)] = found
        return spec.resolve() if found is _GENERATED else found

    # -- conflict profiles -------------------------------------------------

    def profile(
        self,
        trace: Trace,
        geometry: CacheGeometry,
        n: int,
        shard_size: int | None = None,
        workers: int | None = None,
        retries: int = 0,
        task_timeout: float | None = None,
        on_error: str = "raise",
        capacities: Sequence[int] = (),
    ) -> "ConflictProfile":
        """Cached :func:`repro.profiling.profile_trace`.

        ``capacities`` names further capacities (in blocks) that will
        be asked of the same trace, block size and ``n`` — a campaign
        grid's other cache sizes.  A miss then profiles each of them
        not yet memoized or cached in the same pass and stores it under
        its own key, where those later calls find it.
        ``shard_size=None`` is the single in-memory pass; with
        ``shard_size`` the trace is profiled shard by shard
        (bit-identical, bounded memory, resumable, optionally parallel
        over ``workers``), but only once no merged profile is stored
        under the same keys.  A hit imports neither the shard driver
        nor NumPy.
        """

        def walk(wanted: list[int]) -> dict[int, "ConflictProfile"]:
            from repro.profiling.sharded import walk_shards

            return walk_shards(
                trace,
                geometry.block_size,
                n,
                wanted,
                self,
                shard_size=shard_size,
                workers=workers,
                retries=retries,
                task_timeout=task_timeout,
                on_error=on_error,
            )[0]

        found = self.profile_stage(trace, geometry, n, capacities, walk)
        return found[geometry.num_blocks]

    def profile_stage(
        self,
        trace: Trace,
        geometry: CacheGeometry,
        n: int,
        capacities: Sequence[int],
        walk: Callable[[list[int]], dict[int, "ConflictProfile"]],
    ) -> dict[int, "ConflictProfile"]:
        """The merged profiles of ``trace``, by capacity in blocks, as
        one :meth:`stage` under the standard ``"profile"`` keys.

        ``geometry``'s capacity is looked up first.  Only if it misses
        are the other ``capacities`` looked up, and ``walk(missing)``
        computes the missing ones (``geometry``'s first) in one pass;
        the result holds every profile found or computed.
        """
        capacity = geometry.num_blocks
        base = {"trace": trace.digest, "block_size": geometry.block_size, "n": n}
        wanted = [capacity, *sorted(set(capacities) - {capacity})]
        by_key = {profile_key("profile", base, c): c for c in wanted}
        primary, *siblings = by_key

        def compute(missing: list[str]):
            merged = walk([by_key[key] for key in missing])
            return [(key, merged[by_key[key]]) for key in missing]

        found = self.stage(
            "profile",
            [primary],
            compute,
            load=ArtifactCache.load_profile,
            store=ArtifactCache.store_profile,
            siblings=siblings,
        )
        return {by_key[key]: profile for key, profile in found.items()}

    # -- exact simulation --------------------------------------------------

    def _indexing_params(self, indexing, seed: int = 0) -> dict:
        from repro.cache.indexing import ModuloIndexing, XorIndexing

        if isinstance(indexing, (list, tuple)):
            banks = [self._indexing_params(bank) for bank in indexing]
            return {"scheme": "skewed", "banks": banks, "seed": seed}
        if isinstance(indexing, XorIndexing):
            return {"scheme": "xor", **function_to_json(indexing.hash_function)}
        if isinstance(indexing, ModuloIndexing):
            return {"scheme": "modulo", "m": indexing.m}
        raise TypeError(f"cannot key indexing policy {indexing!r}")

    def _stats_key(
        self, trace: Trace, geometry: CacheGeometry, indexing, seed: int = 0
    ) -> str:
        return stable_key(
            "stats",
            {
                "trace": trace.digest,
                "geometry": geometry_params(geometry),
                "indexing": self._indexing_params(indexing, seed),
            },
        )

    def simulate(
        self, trace: Trace, geometry: CacheGeometry, indexing, seed: int = 0
    ) -> CacheStats:
        """Cached exact replay of ``trace`` through ``geometry``.

        ``indexing`` is one policy, or a list of per-bank policies: a
        skewed cache of ``geometry.associativity`` banks of
        ``geometry.num_sets`` frames each, whose pseudo-random
        replacement ``seed`` seeds (and only then keys).
        """
        skewed = isinstance(indexing, (list, tuple))
        banks = [geometry.num_sets] * geometry.associativity
        if skewed and [bank.num_sets for bank in indexing] != banks:
            raise ValueError(f"bank list {indexing!r} does not fit {geometry}")
        key = self._stats_key(trace, geometry, indexing, seed)

        def replay(missing: list[str]):
            from repro.cache import engine

            blocks = trace.block_addresses(geometry.block_size)
            if skewed:
                return [(key, engine.simulate_banks(blocks, indexing, seed=seed))]
            return [(key, engine.simulate(blocks, geometry, indexing))]

        return self.stage("stats", [key], replay, _load_stats, _store_stats)[key]

    def baseline(self, trace: Trace, geometry: CacheGeometry) -> CacheStats:
        """Cached conventional-indexing (modulo) stats."""
        from repro.cache.indexing import ModuloIndexing

        return self.simulate(trace, geometry, ModuloIndexing(geometry.index_bits))

    def evaluate(
        self, trace: Trace, geometry: CacheGeometry, fn: "XorHashFunction"
    ) -> CacheStats:
        """Cached exact stats for one XOR hash function."""
        from repro.cache.indexing import XorIndexing

        return self.simulate(trace, geometry, XorIndexing(fn))

    def evaluate_many(
        self,
        trace: Trace,
        geometry: CacheGeometry,
        functions: Sequence["XorHashFunction"],
    ) -> list[CacheStats]:
        """Cached exact verification of a candidate front.

        Only the functions without a cached artifact are simulated, in
        one engine call; their results are stored under the same
        per-function keys :meth:`evaluate` uses.
        """
        from repro.cache.indexing import XorIndexing

        keys = [self._stats_key(trace, geometry, XorIndexing(fn)) for fn in functions]
        by_key = dict(zip(keys, functions))

        def replay(missing: list[str]):
            from repro.cache import engine

            computed = engine.evaluate_many(
                trace, geometry, [by_key[key] for key in missing]
            )
            return zip(missing, computed)

        found = self.stage("stats", keys, replay, _load_stats, _store_stats)
        return [found[key] for key in keys]  # type: ignore[misc]

    def __repr__(self) -> str:
        root = str(self.cache.root) if self.cache is not None else None
        return f"PipelineContext(cache={root!r}, memoized={len(self._memo)})"

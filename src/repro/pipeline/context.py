"""The pipeline session: one cache-fronted view of the whole flow.

A :class:`PipelineContext` wraps an :class:`ArtifactCache` (optional —
``cache=None`` gives a purely in-memory session).  :meth:`trace` maps a
spec to its trace, through the cache's trace-digest memo, and the
pipeline's three expensive primitives keep identical semantics to the
uncached functions they front:

* :meth:`profile` — :func:`repro.profiling.profile_trace`, every miss
  run by the one profile driver
  (:func:`repro.profiling.run_sharded_profile`: the single pass is its
  one-shard plan), which stores the merged profiles back here;
* :meth:`baseline` / :meth:`evaluate` / :meth:`evaluate_many` — the
  exact simulators in :mod:`repro.core.evaluate`;
* :meth:`load_optimization` / :meth:`store_optimization` — whole
  :class:`~repro.core.optimizer.OptimizationResult` records, so a warm
  campaign replay skips even the hill climb.

Stages take their context as an explicit ``context=`` argument
(:func:`~repro.core.optimizer.optimize_for_trace`, the table drivers,
the campaign runner's tasks); results are bit-identical to a context
without a cache (property-tested in ``tests/pipeline``).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import ModuloIndexing, XorIndexing
from repro.cache.stats import CacheStats
from repro.gf2.hashfn import XorHashFunction
from repro.pipeline.artifact_cache import ArtifactCache, stable_key
from repro.profiling.conflict_profile import ConflictProfile
from repro.profiling.sharded import run_sharded_profile
from repro.trace.trace import DeferredTrace, Trace

if TYPE_CHECKING:
    from repro.api.spec import TraceSpec

__all__ = ["PipelineContext"]

#: Storage kind of the trace-digest memo (see :meth:`PipelineContext.trace`).
TRACE_MEMO = "trace-memo"

#: Memo value for a trace generated in this process: the workload
#: registry's in-process cache holds it from then on.
_GENERATED = object()


def _geometry_params(geometry: CacheGeometry) -> dict:
    return {
        "size_bytes": geometry.size_bytes,
        "block_size": geometry.block_size,
        "associativity": geometry.associativity,
    }


def _stats_to_json(stats: CacheStats) -> dict:
    return {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "compulsory": stats.compulsory,
    }


def _stats_from_json(payload: dict) -> CacheStats:
    return CacheStats(
        accesses=int(payload["accesses"]),
        misses=int(payload["misses"]),
        compulsory=int(payload["compulsory"]),
    )


def _function_to_json(fn: XorHashFunction) -> dict:
    return {"n": fn.n, "columns": list(fn.columns)}


def _function_from_json(payload: dict) -> XorHashFunction:
    return XorHashFunction(int(payload["n"]), [int(c) for c in payload["columns"]])


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

    # -- traces ------------------------------------------------------------

    def _trace_key(self, spec: "TraceSpec") -> str:
        """A registry trace's identity plus the fingerprint of the code
        that generates it, so a memo entry goes stale with that code."""
        from repro.workloads.registry import generator_fingerprint

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
        <repro.workloads.registry.generator_fingerprint>`.  On a hit it
        returns a :class:`~repro.trace.trace.DeferredTrace`, so stages
        served from the cache never run the workload kernel; a stage
        that needs the addresses generates them then, and they must
        match the recorded digest.  On a miss the trace is generated
        and the record written.  Later asks in the same context read no
        storage: a generated trace comes from the workload registry's
        in-process cache, a deferred one is reused.  The memo holds no
        computed result, so it counts no hit, miss or store.
        File-backed specs and contexts without a cache resolve
        directly.
        """
        if spec.path is not None or self.cache is None:
            return spec.resolve()
        # In process the spec itself is the key: the fingerprint is fixed.
        found = self._memo.get(("trace", spec))
        if found is None:
            key = self._trace_key(spec)
            found = self._memoized_trace(spec, key)
            if found is None:
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

    def _profile_key(
        self, trace: Trace, block_size: int, capacity_blocks: int, n: int
    ) -> str:
        """Keyed by what the profile actually depends on: the trace
        content, the block size (address granularity), the capacity in
        blocks (the capacity-miss filter) and the window width ``n`` —
        not the full geometry, so e.g. every associativity sharing a
        capacity shares the profile."""
        return stable_key(
            "profile",
            {
                "trace": trace.digest,
                "block_size": block_size,
                "capacity_blocks": capacity_blocks,
                "n": n,
            },
        )

    def _stored_profile(self, key: str) -> ConflictProfile | None:
        """The profile under ``key`` from the memo or the cache, memoized."""
        found = self._memo.get(("profile", key))
        if found is None and self.cache is not None:
            found = self.cache.load_profile(key)
        if found is not None:
            self._memo[("profile", key)] = found
        return found

    def _keep_profile(self, key: str, profile: ConflictProfile) -> None:
        if self.cache is not None:
            self.cache.store_profile(key, profile)
        self._memo[("profile", key)] = profile

    def _profile_lookup(
        self,
        trace: Trace,
        block_size: int,
        n: int,
        capacity: int,
        capacities: Sequence[int] = (),
    ) -> tuple[ConflictProfile | None, dict[int, str]]:
        """The stored profile at ``capacity``, or ``None`` plus the key
        of it and of each of ``capacities`` not stored yet, by capacity:
        what one profiling pass must compute.  Each key is looked up
        once."""
        key = self._profile_key(trace, block_size, capacity, n)
        found = self._stored_profile(key)
        if found is not None:
            return found, {}
        missing = {capacity: key}
        for other in sorted(set(capacities) - {capacity}):
            other_key = self._profile_key(trace, block_size, other, n)
            if self._stored_profile(other_key) is None:
                missing[other] = other_key
        return None, missing

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
    ) -> ConflictProfile:
        """Cached :func:`repro.profiling.profile_trace`.

        Misses run the one profile driver,
        :func:`repro.profiling.run_sharded_profile`, which stores its
        merged profiles here.  ``capacities`` names further capacities
        (in blocks) that will be asked of the same trace, block size
        and ``n`` — a campaign grid's other cache sizes.  A miss then
        profiles each of them not yet memoized or cached in the same
        pass and stores it under its own key, where those later calls
        find it.  ``shard_size=None`` is the single in-memory pass;
        with ``shard_size`` the trace is profiled shard by shard
        (bit-identical, bounded memory, resumable, optionally parallel
        over ``workers``), but only once no merged profile is stored
        under the same keys.
        """
        # The driver looks a one-shard plan's profiles up itself; a
        # multi-shard plan walks its shards, so a stored merged profile
        # is served here first.
        if shard_size is not None and shard_size < len(trace):
            found, missing = self._profile_lookup(
                trace, geometry.block_size, n, geometry.num_blocks, capacities
            )
            if found is not None:
                return found
            capacities = tuple(missing)
        return run_sharded_profile(
            trace,
            geometry,
            n,
            shard_size=shard_size,
            workers=workers,
            context=self,
            retries=retries,
            task_timeout=task_timeout,
            on_error=on_error,
            capacities=capacities,
        ).profile

    # -- exact simulation --------------------------------------------------

    def _indexing_params(self, indexing) -> dict:
        if isinstance(indexing, XorIndexing):
            return {"scheme": "xor", **_function_to_json(indexing.hash_function)}
        if isinstance(indexing, ModuloIndexing):
            return {"scheme": "modulo", "m": indexing.m}
        raise TypeError(f"cannot key indexing policy {indexing!r}")

    def _stats_key(self, trace: Trace, geometry: CacheGeometry, indexing) -> str:
        return stable_key(
            "stats",
            {
                "trace": trace.digest,
                "geometry": _geometry_params(geometry),
                "indexing": self._indexing_params(indexing),
            },
        )

    def simulate(self, trace: Trace, geometry: CacheGeometry, indexing) -> CacheStats:
        """Cached exact replay of ``trace`` through ``geometry``."""
        key = self._stats_key(trace, geometry, indexing)
        memo_key = ("stats", key)
        cached = self._memo.get(memo_key)
        if cached is None and self.cache is not None:
            payload = self.cache.load_json("stats", key)
            cached = _stats_from_json(payload) if payload is not None else None
        if cached is None:
            from repro.cache import engine

            blocks = trace.block_addresses(geometry.block_size)
            cached = engine.simulate(blocks, geometry, indexing)
            if self.cache is not None:
                self.cache.store_json("stats", key, _stats_to_json(cached))
        self._memo[memo_key] = cached
        return cached

    def baseline(self, trace: Trace, geometry: CacheGeometry) -> CacheStats:
        """Cached conventional-indexing (modulo) stats."""
        return self.simulate(trace, geometry, ModuloIndexing(geometry.index_bits))

    def evaluate(
        self, trace: Trace, geometry: CacheGeometry, fn: XorHashFunction
    ) -> CacheStats:
        """Cached exact stats for one XOR hash function."""
        return self.simulate(trace, geometry, XorIndexing(fn))

    def evaluate_many(
        self,
        trace: Trace,
        geometry: CacheGeometry,
        functions: Sequence[XorHashFunction],
    ) -> list[CacheStats]:
        """Cached batched verification of a candidate front.

        Only the functions without a cached artifact are simulated, in
        one batched engine replay; their results are stored under the
        same per-function keys :meth:`evaluate` uses.
        """
        functions = list(functions)
        results: list[CacheStats | None] = [None] * len(functions)
        missing: list[int] = []
        keys: list[str] = []
        for i, fn in enumerate(functions):
            key = self._stats_key(trace, geometry, XorIndexing(fn))
            keys.append(key)
            cached = self._memo.get(("stats", key))
            if cached is None and self.cache is not None:
                payload = self.cache.load_json("stats", key)
                if payload is not None:
                    cached = _stats_from_json(payload)
                    self._memo[("stats", key)] = cached
            if cached is None:
                missing.append(i)
            else:
                results[i] = cached
        if missing:
            from repro.cache import engine

            computed = engine.evaluate_many(
                trace, geometry, [functions[i] for i in missing]
            )
            for i, stats in zip(missing, computed):
                results[i] = stats
                self._memo[("stats", keys[i])] = stats
                if self.cache is not None:
                    self.cache.store_json("stats", keys[i], _stats_to_json(stats))
        return results  # type: ignore[return-value]

    # -- whole optimization outcomes ---------------------------------------

    def _optimization_key(
        self,
        trace: Trace,
        geometry: CacheGeometry,
        family_name: str,
        n: int,
        guard: bool,
        restarts: int,
        seed: int,
        max_steps: int | None,
        profile_digest: str,
        strategy: str = "steepest",
    ) -> str:
        params = {
            "trace": trace.digest,
            "geometry": _geometry_params(geometry),
            "family": family_name,
            "n": n,
            "guard": guard,
            "restarts": restarts,
            "seed": seed,
            "max_steps": max_steps,
            "profile": profile_digest,
        }
        # The paper's steepest descent is keyed without a strategy
        # component so records written before strategies existed stay
        # valid; every other strategy gets its own key space.
        if strategy != "steepest":
            params["strategy"] = strategy
        return stable_key("optimization", params)

    def load_optimization(
        self,
        trace: Trace,
        geometry: CacheGeometry,
        family_name: str,
        n: int,
        guard: bool,
        restarts: int,
        seed: int,
        max_steps: int | None,
        profile: ConflictProfile,
        strategy: str = "steepest",
    ):
        """Cached :class:`~repro.core.optimizer.OptimizationResult`.

        The record stores everything but the profile, which the caller
        already holds (it is cached separately and part of the key).
        """
        if self.cache is None:
            return None
        from repro.core.optimizer import OptimizationResult
        from repro.search.hill_climb import SearchResult

        key = self._optimization_key(
            trace, geometry, family_name, n, guard, restarts, seed, max_steps,
            profile.digest, strategy,
        )
        payload = self.cache.load_json("optimization", key)
        if payload is None:
            return None
        search = payload["search"]
        return OptimizationResult(
            # The record may have been written by a different-named
            # trace with identical content (digests ignore provenance);
            # recomputing would label the result with *this* trace.
            trace_name=trace.name,
            geometry=geometry,
            family_name=payload["family_name"],
            hash_function=_function_from_json(payload["function"]),
            baseline=_stats_from_json(payload["baseline"]),
            optimized=_stats_from_json(payload["optimized"]),
            search=SearchResult(
                function=_function_from_json(search["function"]),
                estimated_misses=int(search["estimated_misses"]),
                start_misses=int(search["start_misses"]),
                steps=int(search["steps"]),
                evaluations=int(search["evaluations"]),
                seconds=float(search["seconds"]),
                history=[int(h) for h in search["history"]],
                family_name=search["family_name"],
                strategy_name=search.get("strategy_name", "steepest"),
                certified=bool(search.get("certified", False)),
                optimality_gap=(
                    None
                    if search.get("optimality_gap") is None
                    else int(search["optimality_gap"])
                ),
                nodes_expanded=int(search.get("nodes_expanded", 0)),
                nodes_pruned=int(search.get("nodes_pruned", 0)),
            ),
            profile=profile,
            reverted=bool(payload["reverted"]),
            trace_digest=trace.digest,
            profile_digest=profile.digest,
        )

    def store_optimization(
        self,
        trace: Trace,
        geometry: CacheGeometry,
        family_name: str,
        n: int,
        guard: bool,
        restarts: int,
        seed: int,
        max_steps: int | None,
        result,
        strategy: str = "steepest",
    ) -> None:
        if self.cache is None:
            return
        key = self._optimization_key(
            trace, geometry, family_name, n, guard, restarts, seed, max_steps,
            result.profile.digest, strategy,
        )
        search = result.search
        self.cache.store_json(
            "optimization",
            key,
            {
                "trace_name": result.trace_name,
                "family_name": result.family_name,
                "function": _function_to_json(result.hash_function),
                "baseline": _stats_to_json(result.baseline),
                "optimized": _stats_to_json(result.optimized),
                "search": {
                    "function": _function_to_json(search.function),
                    "estimated_misses": search.estimated_misses,
                    "start_misses": search.start_misses,
                    "steps": search.steps,
                    "evaluations": search.evaluations,
                    "seconds": search.seconds,
                    "history": list(search.history),
                    "family_name": search.family_name,
                    "strategy_name": search.strategy_name,
                    # Exact-search provenance: stored only when present
                    # so pre-existing heuristic records stay readable
                    # and byte-stable.
                    **(
                        {
                            "certified": search.certified,
                            "optimality_gap": search.optimality_gap,
                            "nodes_expanded": search.nodes_expanded,
                            "nodes_pruned": search.nodes_pruned,
                        }
                        if search.certified
                        or search.optimality_gap is not None
                        or search.nodes_expanded
                        or search.nodes_pruned
                        else {}
                    ),
                },
                "reverted": result.reverted,
            },
        )

    def __repr__(self) -> str:
        root = str(self.cache.root) if self.cache is not None else None
        return f"PipelineContext(cache={root!r}, memoized={len(self._memo)})"

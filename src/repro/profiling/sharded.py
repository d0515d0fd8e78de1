"""Sharded, parallel Fig. 1 profiling for out-of-core traces.

The single-pass kernel (:func:`repro.profiling.profile_blocks`) needs
the whole block stream plus O(N) side arrays in memory.  This module
cuts the stream into a :class:`ShardPlan` of fixed-size shards, profiles
every shard independently — in parallel worker processes when asked —
and merges the per-shard histograms into a profile **bit-identical** to
the single pass, in memory bounded by the shard size and the block
working set rather than the trace length.  It is the only profile
driver: the single pass is its one-shard plan, and every
:meth:`PipelineContext.profile
<repro.pipeline.context.PipelineContext.profile>` miss runs
:func:`walk_shards`.

Why exactness survives the cut
------------------------------
The kernel only consumes *relative order*: an access contributes the
XOR vectors of the distinct blocks above its previous occurrence on the
LRU stack, or a capacity/compulsory miss.  The LRU stack state at a
shard boundary is fully described by (block, last occurrence time) for
every block seen so far.  So each shard is profiled on a synthetic
stream: one access per previously-seen block, in ascending
last-occurrence order (the *prefix*), followed by the shard itself.
The prefix reproduces the exact stack the global pass would have, its
accesses are all first touches (``len(prefix)`` compulsory misses, no
vectors, no capacity misses — at every capacity), and subtracting them
leaves precisely the shard's contribution to the global profile, so one
pass per shard serves every requested capacity.  A cheap parallel *scan*
pass computes each shard's (block, last time) summary; a sequential
prefix-merge of those summaries (plain array ops) yields every shard's
incoming state.

Resumability
------------
With an artifact cache, every shard profile and scan summary of a
multi-shard plan is stored under a key derived from the trace digest,
geometry and shard bounds; the merged profiles land under the standard
``"profile"`` keys, which are a one-shard plan's only artifacts.
A warm re-run loads the merged profile and touches no shard; a re-run
whose merged profile was never stored (a crash mid-walk) loads the
finished shards and recomputes only the missing ones, and the scan
phase is skipped entirely once no shard is missing.

NumPy and the Fig. 1 kernel load only once a shard is read: a run
served from stored profiles imports neither.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.cache.geometry import CacheGeometry
from repro.pipeline.artifact_cache import profile_key
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.profiling.conflict_profile import ConflictProfile

__all__ = [
    "Shard",
    "ShardPlan",
    "ShardedProfileResult",
    "ArrayBlockSource",
    "FileBlockSource",
    "run_sharded_profile",
    "walk_shards",
]

#: Default accesses per shard: ~32 MB of uint64 blocks, small enough
#: that a handful of workers fit comfortably in memory, large enough to
#: amortize scheduling and prefix replay.
DEFAULT_SHARD_SIZE = 1 << 22


@dataclass(frozen=True)
class Shard:
    """One ``[start, stop)`` slice of the block stream."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """Fixed-size, order-preserving cut of ``total`` accesses.

    Shards partition ``[0, total)`` exactly; the LRU-stack overlap
    between consecutive shards is not duplicated into the slices but
    carried as scan state (see the module docstring), so the plan is
    a pure arithmetic object.  ``shard_size=None`` is one shard
    covering the whole trace (even an empty one): the single pass.
    """

    total: int
    shard_size: int | None

    def __post_init__(self):
        if self.total < 0:
            raise ValueError(f"total must be >= 0, got {self.total}")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")

    @property
    def num_shards(self) -> int:
        if self.shard_size is None:
            return 1
        return -(-self.total // self.shard_size)

    def __len__(self) -> int:
        return self.num_shards

    def __getitem__(self, index: int) -> Shard:
        if not 0 <= index < self.num_shards:
            raise IndexError(index)
        size = self.total if self.shard_size is None else self.shard_size
        start = index * size
        return Shard(index, start, min(start + size, self.total))

    def __iter__(self) -> Iterator[Shard]:
        return (self[i] for i in range(self.num_shards))


@dataclass(frozen=True)
class ArrayBlockSource:
    """Block stream backed by an in-memory array (ships to workers by
    pickling the array — fine for tests and serial runs)."""

    blocks: np.ndarray

    def __len__(self) -> int:
        return len(self.blocks)

    def read(self, start: int, stop: int) -> np.ndarray:
        import numpy as np

        return np.ascontiguousarray(self.blocks[start:stop], dtype=np.uint64)


@dataclass(frozen=True)
class FileBlockSource:
    """Block stream backed by a raw ``.bin`` trace file.

    Pickles as a path, so parallel workers each reopen the mapping and
    page in only their own shard — the reason a 100M-access trace
    profiles under a memory budget that never fits the trace.
    ``block_shift`` is ``log2(block_size)`` applied on read.
    """

    path: str
    count: int
    block_shift: int = 0

    def __len__(self) -> int:
        return self.count

    def read(self, start: int, stop: int) -> np.ndarray:
        import numpy as np

        mapped = np.memmap(self.path, dtype=np.dtype("<u8"), mode="r")
        # Both branches allocate a fresh shard-sized array, so the
        # mapping (and its paged-in slice) is released on return.
        if self.block_shift:
            return np.asarray(
                np.right_shift(mapped[start:stop], np.uint64(self.block_shift)),
                dtype=np.uint64,
            )
        return np.array(mapped[start:stop], dtype=np.uint64)


@dataclass(frozen=True)
class ShardedProfileResult:
    """A merged profile plus how the sharded run actually executed."""

    profile: ConflictProfile
    #: Merged profile per capacity in blocks, ``profile`` among them.
    profiles: dict[int, ConflictProfile]
    plan: ShardPlan
    workers: int
    #: Shards whose profile was computed this run.
    recomputed_shards: int
    #: Shards whose profile artifacts were loaded this run; 0 when the
    #: stored merged profile was served and no shard was read.
    cached_shards: int
    #: Scan summaries computed this run (vs loaded or not needed).
    recomputed_scans: int
    seconds: float


def _scan_summary(blocks: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """(unique blocks sorted ascending, their global last-access times).

    One stable argsort: within each equal-block group program order is
    preserved, so the last row of a group is the block's latest access.
    """
    import numpy as np

    order = np.argsort(blocks, kind="stable")
    in_order = blocks[order]
    if not len(in_order):
        return in_order, np.empty(0, dtype=np.int64)
    last = np.flatnonzero(np.append(in_order[1:] != in_order[:-1], True))
    return in_order[last], start + order[last].astype(np.int64)


def _merge_state(
    state_blocks: np.ndarray,
    state_times: np.ndarray,
    new_blocks: np.ndarray,
    new_times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold a later shard's scan summary into the running (block, last
    time) state; the summary wins on duplicates (its times are later)."""
    import numpy as np

    if not len(state_blocks):
        return new_blocks, new_times
    if not len(new_blocks):
        return state_blocks, state_times
    all_blocks = np.concatenate([state_blocks, new_blocks])
    all_times = np.concatenate([state_times, new_times])
    order = np.argsort(all_blocks, kind="stable")
    in_order = all_blocks[order]
    last = np.flatnonzero(np.append(in_order[1:] != in_order[:-1], True))
    return in_order[last], all_times[order[last]]


def _profile_shard(
    shard_blocks: np.ndarray,
    prefix_blocks: np.ndarray,
    capacities: list[int],
    n: int,
) -> dict[int, ConflictProfile]:
    """Profile one shard at every capacity (in blocks) of ``capacities``
    in one pass, given the blocks live before it in ascending
    last-occurrence order (the synthetic-prefix replay)."""
    import numpy as np

    from repro.profiling.conflict_profile import profile_blocks

    if len(prefix_blocks):
        synthetic = np.concatenate([prefix_blocks, shard_blocks])
    else:
        synthetic = shard_blocks
    profiles = dict.fromkeys(capacities)
    profile_blocks(synthetic, max(capacities), n, siblings=profiles)
    # The prefix accesses are first touches at every capacity.
    return {
        capacity: profile.replace(
            compulsory=profile.compulsory - len(prefix_blocks),
            accesses=len(shard_blocks),
        )
        for capacity, profile in profiles.items()
    }


# -- worker tasks (top level so the process pool can pickle them) ----------


def _scan_shard_task(context, item, source) -> tuple[np.ndarray, np.ndarray, bool]:
    """Scan one shard: return (blocks, last times, recomputed)."""
    from repro.pipeline.faults import maybe_inject

    start, stop, key = item
    # Entry injection, before any cache access: a retried attempt redoes
    # exactly what a clean attempt would (see repro.pipeline.faults).
    maybe_inject("shard.profile", f"scan:{start}:{stop}")
    scanned = []

    def scan(missing: list):
        blocks, times = _scan_summary(source.read(start, stop), start)
        scanned.append(True)
        return [(key, {"blocks": blocks, "times": times})]

    summary = context.stage(
        "shard-scan",
        [key],
        scan,
        load=lambda cache, key: cache.load_arrays("shard-scan", key),
        store=lambda cache, key, arrays: cache.store_arrays("shard-scan", key, arrays),
        memo=False,
    )[key]
    return summary["blocks"], summary["times"], bool(scanned)


def _profile_shard_task(context, item, source, n) -> dict[int, ConflictProfile]:
    """Profile one shard at its missing capacities and store their
    artifacts."""
    from repro.pipeline.faults import maybe_inject

    start, stop, keys, prefix_blocks = item
    maybe_inject("shard.profile", f"profile:{start}:{stop}")
    profiles = _profile_shard(source.read(start, stop), prefix_blocks, list(keys), n)
    if context.cache is not None:
        for capacity, key in keys.items():
            context.cache.store_profile(key, profiles[capacity], kind="shard-profile")
    return profiles


# -- drivers ---------------------------------------------------------------


def _plan(trace: Trace, shard_size: int | None, workers: int | None) -> tuple[ShardPlan, int]:
    """The plan cutting ``trace`` and the workers it runs on: one per
    core for ``workers=None``, at most one per shard."""
    plan = ShardPlan(len(trace), shard_size)
    # One shard runs in process: no core count (a file read per call),
    # which a cache hit would otherwise pay for.
    if workers is None and len(plan) > 1:
        workers = os.cpu_count() or 1
    return plan, max(1, min(workers or 1, len(plan)))


def walk_shards(
    trace: Trace,
    block_size: int,
    n: int,
    capacities: list[int],
    context,
    shard_size: int | None = DEFAULT_SHARD_SIZE,
    workers: int | None = 1,
    retries: int = 0,
    task_timeout: float | None = None,
    on_error: str = "raise",
) -> tuple[dict[int, ConflictProfile], int, int, int]:
    """(merged profile per capacity, shards recomputed, shards loaded,
    scans recomputed) for ``trace`` cut into ``shard_size`` shards:
    the compute half of :func:`run_sharded_profile`, which looks up no
    merged profile.

    A plan of at most one shard is the single pass, run in process: no
    scan, shard artifact, fault site or retry layer.  Otherwise both
    phases fan out through ``context.map``.  With a cached ``context``
    the shard artifacts are keyed by trace digest, block size, ``n``,
    capacity and shard bounds.  Scan summaries depend on no capacity;
    they are keyed like ``capacities[0]``'s.
    """
    import numpy as np

    from repro.profiling.conflict_profile import ConflictProfile

    plan, workers = _plan(trace, shard_size, workers)
    source = _block_source(trace, block_size)
    key_base = None
    if context.cache is not None:
        key_base = {"trace": trace.digest, "block_size": block_size, "n": n}
    if min(capacities) < 1:
        raise ValueError(f"capacity must be >= 1 block, got {min(capacities)}")
    if len(plan) <= 1:
        blocks = source.read(0, len(source))
        return _profile_shard(blocks, blocks[:0], capacities, n), len(plan), 0, 0
    # Both phases fan out through the context; a profile missing a
    # shard is not a partial result but a wrong one, so the skip policy
    # (meaningful for independent campaign rows) is coerced to raise
    # here; retries/timeouts apply unchanged.
    policy = dict(
        workers=workers,
        retries=retries,
        task_timeout=task_timeout,
        on_error="raise" if on_error == "skip" else on_error,
    )
    shards = list(plan)
    cache = context.cache

    def shard_key(kind: str, shard: Shard, capacity: int) -> str | None:
        if key_base is None:
            return None
        return profile_key(kind, key_base, capacity, shard)

    # Per shard: the stored profile by capacity, and the keys of the
    # capacities a shard task must compute.
    profiles: list[dict[int, ConflictProfile]] = [{} for _ in shards]
    missing: dict[int, dict[int, str | None]] = {}
    for shard, found in zip(shards, profiles):
        for capacity in capacities:
            key = shard_key("shard-profile", shard, capacity)
            stored = key and cache.load_profile(key, kind="shard-profile")
            if stored is None:
                missing.setdefault(shard.index, {})[capacity] = key
            else:
                found[capacity] = stored
    recomputed_scans = 0
    if missing:
        # Incoming LRU-stack state per missing shard, via scan summaries
        # of every shard before the furthest missing one.  Scans fan out
        # over the same pool as the profiling phase.
        scan_items = [
            (shard.start, shard.stop, shard_key("shard-scan", shard, capacities[0]))
            for shard in shards[: max(missing)]
        ]
        summaries = [
            outcome.value
            for outcome in context.map(
                partial(_scan_shard_task, source=source), scan_items, **policy
            )
        ]
        recomputed_scans = sum(1 for *_, fresh in summaries if fresh)
        prefixes: dict[int, np.ndarray] = {}
        state_blocks = np.empty(0, dtype=np.uint64)
        state_times = np.empty(0, dtype=np.int64)
        for shard in shards:
            if shard.index in missing:
                # Blocks live before the shard, in ascending
                # last-occurrence order = LRU stack order.
                prefixes[shard.index] = state_blocks[np.argsort(state_times)]
            if shard.index < len(summaries):
                blocks, times, _fresh = summaries[shard.index]
                state_blocks, state_times = _merge_state(
                    state_blocks, state_times, blocks, times
                )
        del state_blocks, state_times, summaries
        profile_items = [
            (shards[i].start, shards[i].stop, keys, prefixes.pop(i))
            for i, keys in missing.items()
        ]
        computed = context.map(
            partial(_profile_shard_task, source=source, n=n), profile_items, **policy
        )
        for i, outcome in zip(missing, computed):
            profiles[i].update(outcome.value)
    merged = {
        capacity: ConflictProfile.merge(found[capacity] for found in profiles)
        for capacity in capacities
    }
    return merged, len(missing), len(shards) - len(missing), recomputed_scans


def _block_source(trace: Trace, block_size: int):
    """Memory-mapped traces (:meth:`Trace.open_mmap`) are read through a
    :class:`FileBlockSource`, so each worker touches only its own
    shard's pages; other traces ship their block array."""
    path = trace.mmap_path
    if path is None:
        return ArrayBlockSource(trace.block_addresses(block_size))
    if block_size <= 0 or block_size & (block_size - 1):
        raise ValueError(f"block size must be a power of two, got {block_size}")
    return FileBlockSource(path, len(trace), block_shift=block_size.bit_length() - 1)


def run_sharded_profile(
    trace: Trace,
    geometry: CacheGeometry,
    n: int,
    shard_size: int | None = DEFAULT_SHARD_SIZE,
    workers: int | None = 1,
    context=None,
    retries: int = 0,
    task_timeout: float | None = None,
    on_error: str = "raise",
    capacities: Sequence[int] = (),
) -> ShardedProfileResult:
    """Profile a trace shard by shard; return the merged profile plus
    execution stats.  The one Fig. 1 profile driver:
    :meth:`PipelineContext.profile
    <repro.pipeline.context.PipelineContext.profile>` runs the same
    stage and, on a miss, the same :func:`walk_shards`.

    ``shard_size=None`` is a one-shard plan, the single in-memory pass.
    ``capacities`` names further capacities (in blocks) profiled in the
    same pass per shard as ``geometry``'s, merged per capacity into
    ``profiles``.  ``workers=None`` picks one process per core.

    With a ``context`` (a
    :class:`~repro.pipeline.context.PipelineContext`) the merged
    profiles are its
    :meth:`~repro.pipeline.context.PipelineContext.profile_stage`,
    under the standard ``"profile"`` keys: a stored merged profile is
    served first (then, on a miss, each other capacity is looked up)
    and only the missing ones are computed.  A one-shard plan's only
    shard *is* that merged profile.  A multi-shard plan that misses
    walks its shard profiles and scan summaries, keyed by trace digest,
    block size, capacity, ``n`` and shard bounds, so a re-run after a
    crash resumes from whatever finished and reports how many shards
    it recomputed and how many it loaded.

    Shards fan out through :meth:`PipelineContext.map
    <repro.pipeline.context.PipelineContext.map>`, whose
    ``retries``/``task_timeout``/``on_error`` apply, except that
    ``on_error="skip"`` is coerced to ``"raise"`` — a profile missing a
    shard would be wrong, not partial.  A shard task that fails is
    retried with backoff; dead workers rebuild the pool and resubmit
    only unfinished shards; already-cached shard artifacts are never
    recomputed by a retry.
    """
    t0 = time.perf_counter()
    if context is None:
        from repro.pipeline.context import PipelineContext

        # Shards fan out through a context even without a cache.
        context = PipelineContext()
    plan, pool = _plan(trace, shard_size, workers)
    ran = {"shards": 0, "cached": 0, "scans": 0}

    def walk(capacities: list[int]) -> dict[int, ConflictProfile]:
        profiles, ran["shards"], ran["cached"], ran["scans"] = walk_shards(
            trace,
            geometry.block_size,
            n,
            capacities,
            context,
            shard_size=shard_size,
            workers=pool,
            retries=retries,
            task_timeout=task_timeout,
            on_error=on_error,
        )
        return profiles

    profiles = context.profile_stage(trace, geometry, n, capacities, walk)
    return ShardedProfileResult(
        profile=profiles[geometry.num_blocks],
        profiles=profiles,
        plan=plan,
        workers=pool,
        recomputed_shards=ran["shards"],
        cached_shards=ran["cached"],
        recomputed_scans=ran["scans"],
        seconds=time.perf_counter() - t0,
    )

"""Conflict-vector profiling — the paper's Fig. 1 algorithm.

A conflict between blocks ``x`` and ``y`` is only possible when
``v = x ^ y`` lies in the hash function's null space (Eq. 2), so the
number of conflict misses of *any* function ``H`` can be estimated from
a single trace pass that histograms the vectors ``x ^ y`` between each
access and the intervening accesses (Eq. 4):

    misses(H) ~= sum over v in N(H) of misses(v)

The profiler filters misses no indexing change can fix: compulsory
misses (first touches) and capacity misses (reuse distance of at least
the cache capacity — such accesses miss even in a fully-associative LRU
cache of the same size).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.gf2.bitvec import mask
from repro.profiling.lru_stack import LRUStack
from repro.profiling.reuse import (
    next_occurrences,
    previous_occurrences,
    walk_chunks,
)
from repro.trace.trace import Trace

__all__ = [
    "ConflictProfile",
    "profile_blocks",
    "profile_blocks_slotted",
    "profile_trace",
]

_FLUSH_THRESHOLD = 1 << 22  # buffered conflict vectors before a bincount flush

#: Accesses per chunk of the vectorized kernel.  Shorter chunks scan
#: fewer slots that die inside the chunk and need fewer merge levels for
#: the in-chunk depth counts; longer ones compact the live-slot array
#: less often.  4 Ki balances the two from 10 K- to 2 M-access traces.
_PROFILE_CHUNK = 1 << 12

#: Flat candidate slots gathered per batch, bounding the transient
#: gather arrays (a few bytes each) whatever the capacity.
_GATHER_BATCH = 1 << 20


@dataclass(frozen=True)
class ConflictProfile:
    """Histogram of conflict vectors over the hashed address window.

    ``counts[v]`` is the number of (access, intervening block) pairs
    whose XOR, truncated to ``n`` bits, equals ``v`` — the paper's
    ``misses(v)``.
    """

    n: int
    counts: np.ndarray
    compulsory: int = 0
    capacity: int = 0
    accesses: int = 0
    #: Pairs of distinct blocks equal in all hashed bits.  They conflict
    #: under *every* n-bit hash function (0 is in every null space), so
    #: they are an unavoidable constant excluded from ``counts``.
    beyond_window: int = 0

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.shape != (1 << self.n,):
            raise ValueError(
                f"counts must have shape ({1 << self.n},), got {counts.shape}"
            )
        if counts[0] != 0:
            raise ValueError("misses(0) must be zero: a block cannot conflict with itself")
        # Frozen for real: the memoized digest keys cache artifacts.
        # Copy when the conversion was a no-op on a writable caller
        # array, so the freeze never leaks out as a side effect.
        if counts is self.counts and counts.flags.writeable:
            counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def digest(self) -> str:
        """Stable content digest over every field of the profile.

        Used by the artifact cache to key search outcomes against the
        exact profile they were derived from.  Memoized per instance
        (the counts array is frozen).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            h = hashlib.sha256(b"conflict-profile-v1")
            h.update(
                f"|n={self.n}|compulsory={self.compulsory}|capacity={self.capacity}"
                f"|accesses={self.accesses}|beyond={self.beyond_window}|".encode()
            )
            h.update(self.counts.tobytes())
            cached = h.hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    @property
    def total_weight(self) -> int:
        """Sum of all vector counts."""
        return int(self.counts.sum())

    @property
    def num_distinct_vectors(self) -> int:
        return int(np.count_nonzero(self.counts))

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(vectors, counts) for the non-zero entries, as numpy arrays."""
        vectors = np.nonzero(self.counts)[0].astype(np.uint32)
        return vectors, self.counts[vectors]

    def weight_of(self, vector: int) -> int:
        """``misses(v)`` for a single vector."""
        if not 0 <= vector < (1 << self.n):
            raise ValueError(f"vector {vector:#x} does not fit in {self.n} bits")
        return int(self.counts[vector])

    @classmethod
    def merge(cls, profiles) -> "ConflictProfile":
        """One-pass pointwise sum of any number of profiles.

        Accepts any iterable (consumed lazily, so a generator of
        per-shard or per-window profiles never holds more than one
        addend plus the accumulator — memory stays O(2^n), not
        O(profiles x 2^n)) and accumulates every histogram into a
        single buffer.  Equivalent to chaining :meth:`merged_with`
        (property-tested) without the intermediate profile object and
        ``2^n`` temporary per addend.
        """
        iterator = iter(profiles)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("merge needs at least one profile") from None
        counts = np.array(first.counts, dtype=np.int64)
        compulsory = first.compulsory
        capacity = first.capacity
        accesses = first.accesses
        beyond_window = first.beyond_window
        for profile in iterator:
            if profile.n != first.n:
                raise ValueError(f"window sizes differ: {first.n} vs {profile.n}")
            np.add(counts, profile.counts, out=counts)
            compulsory += profile.compulsory
            capacity += profile.capacity
            accesses += profile.accesses
            beyond_window += profile.beyond_window
        # Pre-freeze so the constructor adopts the accumulator instead
        # of defensively copying a writable caller array.
        counts.setflags(write=False)
        return cls(
            first.n,
            counts,
            compulsory=compulsory,
            capacity=capacity,
            accesses=accesses,
            beyond_window=beyond_window,
        )

    def merged_with(self, other: "ConflictProfile") -> "ConflictProfile":
        """Pointwise sum of two profiles over the same window."""
        return ConflictProfile.merge((self, other))

    def top_vectors(self, k: int) -> list[tuple[int, int]]:
        """The ``k`` heaviest conflict vectors as (vector, count) pairs,
        ties broken by ascending vector."""
        vectors, counts = self.support()
        # support() lists vectors ascending, so a stable sort on the
        # negated counts keeps tied vectors in that order.
        order = np.argsort(-counts, kind="stable")[:k]
        return [(int(vectors[i]), int(counts[i])) for i in order]

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            Path(path),
            n=self.n,
            counts=self.counts,
            meta=np.array(
                [self.compulsory, self.capacity, self.accesses, self.beyond_window],
                dtype=np.int64,
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ConflictProfile":
        with np.load(Path(path)) as data:
            meta = data["meta"]
            return cls(
                int(data["n"]),
                data["counts"],
                compulsory=int(meta[0]),
                capacity=int(meta[1]),
                accesses=int(meta[2]),
                # Archives written before beyond_window was persisted
                # have a three-entry meta vector.
                beyond_window=int(meta[3]) if len(meta) > 3 else 0,
            )

    def __repr__(self) -> str:
        return (
            f"ConflictProfile(n={self.n}, distinct={self.num_distinct_vectors}, "
            f"weight={self.total_weight}, compulsory={self.compulsory}, "
            f"capacity={self.capacity}, accesses={self.accesses})"
        )


def _segment_batches(offsets: np.ndarray, limit: int):
    """Split CSR segments into batches of ~``limit`` flat elements.

    Batches always align with segment boundaries (an access's interval
    is never split), so a batch can exceed ``limit`` only when a single
    segment does; this bounds the transient gather arrays on traces
    with long reuse intervals.
    """
    segments = len(offsets) - 1
    start = 0
    while start < segments:
        end = int(np.searchsorted(offsets, offsets[start] + limit, side="right")) - 1
        if end <= start:
            end = start + 1
        yield start, end
        start = end


def profile_blocks(
    blocks: np.ndarray,
    capacity_blocks: int,
    n: int,
    chunk_size: int | None = None,
    *,
    siblings: dict[int, ConflictProfile | None] | None = None,
) -> ConflictProfile:
    """Run the Fig. 1 profiling pass over a block-address trace.

    Parameters
    ----------
    blocks:
        Block addresses in program order.  Normalized to ``uint64``
        (full 64-bit addresses are valid block ids).
    capacity_blocks:
        Cache capacity in blocks; accesses whose reuse depth reaches
        it are capacity misses and contribute no conflict vectors.
    n:
        Hashed-address window; conflict vectors are truncated to ``n``
        bits exactly as the hash functions only see ``n`` bits.
    chunk_size:
        Accesses per vectorized chunk (default ``_PROFILE_CHUNK``);
        only property tests shrink it.
    siblings:
        Further capacities (in blocks) to profile in the same pass:
        each key's value is replaced by the profile at that capacity.

    Every access's exact LRU depth ``d`` is computed first
    (:func:`~repro.profiling.reuse.walk_chunks`), and an access is a
    conflict at capacity ``C`` exactly when ``d < C`` (Mattson stack
    inclusion).  So capacity misses cost O(1) each, and only conflicts
    gather the blocks above them — work proportional to the conflict
    pairs emitted, for every requested capacity at once.  Bit-identical
    to :func:`profile_blocks_reference` at each capacity
    (property-tested).
    """
    blocks = np.ascontiguousarray(np.asarray(blocks), dtype=np.uint64)
    profiles = _profile_pass(
        blocks, [capacity_blocks, *(siblings or ())], n, chunk_size
    )
    for capacity in siblings or ():
        siblings[capacity] = profiles[capacity]
    return profiles[capacity_blocks]


def _profile_pass(
    blocks: np.ndarray,
    capacities,
    n: int,
    chunk_size: int | None = None,
) -> dict[int, ConflictProfile]:
    """One Fig. 1 pass over a ``uint64`` block array, profiled at every
    capacity (in blocks) of ``capacities`` at once.

    Each conflict pair lands in one ``bincount`` bin of ``K * 2^n``:
    the depth bucket of its access (the index of the smallest of the
    ``K`` capacities it is a conflict for) times the vector.  A
    capacity's profile is then the cumulative sum of the buckets up to
    its own; bin 0 of each bucket counts the ``beyond_window`` pairs.

    The pairs of an access are the blocks live in its reuse interval.
    Per chunk of accesses they are gathered from the chunk's
    *candidates* (see :func:`~repro.profiling.reuse.walk_chunks`) with
    one CSR-style flat gather for all of the chunk's conflicts.
    """
    caps = np.unique(np.asarray(capacities, dtype=np.int64))
    if caps[0] < 1:
        raise ValueError(f"capacity must be >= 1 block, got {caps[0]}")
    if chunk_size is None:
        chunk_size = _PROFILE_CHUNK
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    count = len(blocks)
    window = np.uint64(mask(n))
    prev = previous_occurrences(blocks)
    nxt = next_occurrences(prev)
    hist = np.zeros(len(caps) << n, dtype=np.int64)
    key_dtype = np.int32 if hist.size <= np.iinfo(np.int32).max else np.int64
    # Repeats per depth bucket: bucket k holds depths in
    # [caps[k-1], caps[k]), bucket K the capacity misses of every size.
    per_bucket = np.zeros(len(caps) + 1, dtype=np.int64)
    pending: list[np.ndarray] = []
    buffered = 0
    for t0, live, lo, depth in walk_chunks(prev, nxt, chunk_size):
        bucket = np.searchsorted(caps, depth, side="right")
        per_bucket += np.bincount(bucket[depth >= 0], minlength=len(caps) + 1)
        # Depth-0 reuses are conflicts with no blocks above: nothing to
        # gather.  The rest reach at most max(caps) live slots back, so
        # the candidates start at the earliest interval, not at live[0].
        sel = np.flatnonzero((depth > 0) & (bucket < len(caps)))
        if not len(sel):
            continue
        first = min(int(lo[sel].min()), live.size)
        cand_times = np.concatenate(
            [live[first:], np.arange(t0, t0 + len(depth), dtype=np.int64)]
        )
        # Death times relative to the chunk, capped at its end: a slot
        # dying at or after it is live at every access in the chunk.
        cand_death = (np.minimum(nxt[cand_times], t0 + len(depth)) - t0).astype(
            np.int32
        )
        cand_low = (blocks[cand_times] & window).astype(key_dtype)
        g_lo = lo[sel] - first
        g_rel = sel.astype(np.int32)
        take = live.size - first + g_rel - g_lo
        # bucket << n | low bits of the accessed block: XOR with a
        # candidate's low bits gives the pair's bin.
        g_key = (bucket[sel] << n).astype(key_dtype)
        g_key |= (blocks[t0 + sel] & window).astype(key_dtype)
        offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(take)])
        for s0, s1 in _segment_batches(offsets, _GATHER_BATCH):
            b_take = take[s0:s1]
            # Candidate positions fit int32 (at most max(caps) plus a
            # chunk), which halves the gather traffic.
            flat = np.arange(int(offsets[s1] - offsets[s0]), dtype=np.int32)
            flat += np.repeat(
                (g_lo[s0:s1] - (offsets[s0:s1] - offsets[s0])).astype(np.int32),
                b_take,
            )
            # A candidate is above the access on the LRU stack iff it
            # is still its block's latest occurrence then.
            alive = np.take(cand_death, flat) > np.repeat(g_rel[s0:s1], b_take)
            bins = np.repeat(g_key[s0:s1], b_take)
            bins ^= np.take(cand_low, flat)
            pending.append(np.compress(alive, bins))
            buffered += len(pending[-1])
            if buffered >= _FLUSH_THRESHOLD:
                hist += np.bincount(np.concatenate(pending), minlength=hist.size)
                pending.clear()
                buffered = 0
    if pending:
        hist += np.bincount(np.concatenate(pending), minlength=hist.size)

    cumulative = np.cumsum(hist.reshape(len(caps), 1 << n), axis=0)
    beyond = cumulative[:, 0].copy()
    cumulative[:, 0] = 0
    cumulative.setflags(write=False)
    compulsory = count - int(per_bucket.sum())
    capacity_misses = np.cumsum(per_bucket[::-1])[::-1]
    return {
        int(capacity): ConflictProfile(
            n,
            cumulative[k],
            compulsory=compulsory,
            capacity=int(capacity_misses[k + 1]),
            accesses=count,
            beyond_window=int(beyond[k]),
        )
        for k, capacity in enumerate(caps)
    }


def profile_blocks_slotted(
    blocks: np.ndarray, capacity_blocks: int, n: int
) -> ConflictProfile:
    """Per-access live-slot implementation of the Fig. 1 pass.

    The previous production kernel, kept as a second oracle next to
    :func:`profile_blocks_reference`: each block's *current last
    position* owns a slot in a time-indexed array, and the blocks above
    ``x`` on the LRU stack are exactly the live slots between ``x``'s
    previous access and now, retrieved as one numpy slice per access.
    Identical results to :func:`profile_blocks`, which replaces the
    Python-rate access loop with chunked array passes.
    """
    if capacity_blocks < 1:
        raise ValueError(f"capacity must be >= 1 block, got {capacity_blocks}")
    blocks = np.ascontiguousarray(np.asarray(blocks), dtype=np.uint64)
    count = len(blocks)
    window = np.uint64(mask(n))
    counts = np.zeros(1 << n, dtype=np.int64)
    last_owner = np.zeros(count, dtype=np.uint64)  # slot t -> block
    live = np.zeros(count, dtype=bool)  # slot t is its block's latest
    last_position: dict[int, int] = {}
    chunks: list[np.ndarray] = []
    buffered = 0
    compulsory = 0
    capacity = 0
    beyond_window = 0

    def flush() -> None:
        nonlocal buffered
        if chunks:
            merged = np.concatenate(chunks)
            np.add(counts, np.bincount(merged, minlength=1 << n), out=counts)
            chunks.clear()
            buffered = 0

    for t in range(count):
        block = int(blocks[t])
        p = last_position.get(block)
        if p is None:
            compulsory += 1
        else:
            above = last_owner[p + 1 : t][live[p + 1 : t]]
            if len(above) >= capacity_blocks:
                capacity += 1
            elif len(above):
                vectors = np.bitwise_and(
                    np.bitwise_xor(above, np.uint64(block)), window
                ).astype(np.int64)
                zero = int(np.count_nonzero(vectors == 0))
                if zero:
                    beyond_window += zero
                    vectors = vectors[vectors != 0]
                if len(vectors):
                    chunks.append(vectors)
                    buffered += len(vectors)
                    if buffered >= _FLUSH_THRESHOLD:
                        flush()
            live[p] = False
        last_owner[t] = np.uint64(block)
        live[t] = True
        last_position[block] = t
    flush()
    return ConflictProfile(
        n,
        counts,
        compulsory=compulsory,
        capacity=capacity,
        accesses=count,
        beyond_window=beyond_window,
    )


def profile_blocks_reference(
    blocks: np.ndarray, capacity_blocks: int, n: int
) -> ConflictProfile:
    """Literal transcription of the paper's Fig. 1 with an LRU stack.

    Kept as the oracle for property tests of :func:`profile_blocks`.
    """
    if capacity_blocks < 1:
        raise ValueError(f"capacity must be >= 1 block, got {capacity_blocks}")
    window = mask(n)
    counts = np.zeros(1 << n, dtype=np.int64)
    stack = LRUStack()
    compulsory = 0
    capacity = 0
    beyond_window = 0

    for raw in np.asarray(blocks, dtype=np.uint64):
        block = int(raw)
        if block not in stack:
            compulsory += 1
            stack.push(block)
            continue
        above = stack.blocks_above(block, capacity_blocks - 1)
        if above is None:
            capacity += 1
        else:
            for other in above:
                vector = (block ^ other) & window
                if vector:
                    counts[vector] += 1
                else:
                    beyond_window += 1
        stack.push(block)
    return ConflictProfile(
        n,
        counts,
        compulsory=compulsory,
        capacity=capacity,
        accesses=len(blocks),
        beyond_window=beyond_window,
    )


def profile_trace(
    trace: Trace, geometry: CacheGeometry, n: int
) -> ConflictProfile:
    """Profile a :class:`~repro.trace.Trace` for a cache geometry.

    Runs the vectorized :func:`profile_blocks` kernel: an exact reuse
    depth per access (``O(N log^2 N)`` array passes), then gather work
    proportional to the conflict pairs emitted, with no per-access
    Python iteration.
    """
    blocks = trace.block_addresses(geometry.block_size)
    return profile_blocks(blocks, geometry.num_blocks, n)

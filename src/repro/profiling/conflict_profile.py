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
from dataclasses import FrozenInstanceError
from itertools import chain
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.cache.engine.core import program_order_links
from repro.cache.geometry import CacheGeometry
from repro.gf2.bitvec import mask
from repro.profiling.reuse import walk_chunks
from repro.trace.trace import Trace

__all__ = [
    "ConflictProfile",
    "profile_blocks",
    "profile_trace",
]

#: Accesses per chunk of the depth walk.  Shorter chunks need fewer
#: merge levels for the in-chunk depth counts; longer ones compact the
#: live-slot array less often.  4 Ki balances the two from 10 K- to
#: 2 M-access traces.
_PROFILE_CHUNK = 1 << 12

#: Accesses per span of a chunk.  A candidate slot born before a span
#: and retiring after it is above every access of the span, so those
#: pairs are broadcast; only the slots retiring inside the span and the
#: span's own slots (under ``2 * _SPAN`` per access) are gathered one
#: by one.  Shorter spans gather less and broadcast more, at a fixed
#: cost per span.
_SPAN = 64

#: A span broadcasts when the reuse intervals of its accesses hold at
#: least this many candidate slots together.  Sparser spans (the
#: pair-sparse traces) gather their accesses' whole intervals in the
#: chunk's one flat pass and pay no per-span cost.
_SPAN_WORK = 1 << 14

#: Masked cells worth one more broadcast in :func:`_bin_suffixes`.
_CUT_COST = 1500

#: Cap on the pair bins buffered between ``bincount`` flushes: 2 Mi
#: int64 entries (16 MiB).  Each flush pays for the ``K * 2^n``
#: histogram it adds to, so :class:`_PairBins` buffers about 2.5 cells
#: per bin (:func:`_buffer_cells`): 2 MiB for one capacity at
#: ``n = 16``, 4 MiB for Table 2's three.  Smaller buffers flush too
#: often (a Table-2 pass took 24 % longer at half that size); larger
#: ones only hold memory.
_PAIR_BUFFER = 1 << 21

#: Cells per flat-gather batch: its index, liveness and bin temporaries
#: (a few bytes per cell each) then stay in the CPU cache.
_GATHER_CELLS = 1 << 15


class ConflictProfile:
    """Histogram of conflict vectors over the hashed address window.

    ``counts[v]`` is the number of (access, intervening block) pairs
    whose XOR, truncated to ``n`` bits, equals ``v`` — the paper's
    ``misses(v)``.  The constructor takes that dense ``2^n`` histogram,
    but a profile keeps only its support: the non-zero ``vectors``
    (ascending ``uint32``) and their ``weights`` (``int64``), both
    read-only.  Eq. 4 sums nothing else, and the profile of a real
    trace fills a few thousand of the ``2^n`` bins.  :attr:`counts`
    rebuilds the dense histogram on each read; :attr:`digest`,
    :meth:`save` and :meth:`merge` hold it only while they run.
    """

    n: int
    vectors: np.ndarray
    weights: np.ndarray
    compulsory: int
    capacity: int
    accesses: int
    #: Pairs of distinct blocks equal in all hashed bits.  They conflict
    #: under *every* n-bit hash function (0 is in every null space), so
    #: they are an unavoidable constant excluded from ``counts``.
    beyond_window: int

    def __init__(
        self,
        n: int,
        counts: np.ndarray,
        compulsory: int = 0,
        capacity: int = 0,
        accesses: int = 0,
        beyond_window: int = 0,
    ):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (1 << n,):
            raise ValueError(
                f"counts must have shape ({1 << n},), got {counts.shape}"
            )
        if counts[0] != 0:
            raise ValueError("misses(0) must be zero: a block cannot conflict with itself")
        vectors = np.flatnonzero(counts)
        # Both are fresh arrays, so no later write to the caller's
        # array reaches the profile.
        self._adopt(
            n,
            vectors.astype(np.uint32),
            counts[vectors],
            compulsory=compulsory,
            capacity=capacity,
            accesses=accesses,
            beyond_window=beyond_window,
        )

    def _adopt(self, n: int, vectors, weights, **header: int) -> None:
        # Frozen for real: the memoized digest keys cache artifacts.
        vectors.setflags(write=False)
        weights.setflags(write=False)
        for name, value in dict(n=n, vectors=vectors, weights=weights, **header).items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def replace(self, **header: int) -> "ConflictProfile":
        """The same support under other header fields (``compulsory``,
        ``capacity``, ``accesses``, ``beyond_window``)."""
        profile = object.__new__(ConflictProfile)
        fields = {name: getattr(self, name) for name in _HEADER}
        profile._adopt(self.n, self.vectors, self.weights, **{**fields, **header})
        return profile

    @property
    def counts(self) -> np.ndarray:
        """The dense ``2^n`` histogram, built anew (read-only) per read."""
        counts = np.zeros(1 << self.n, dtype=np.int64)
        counts[self.vectors] = self.weights
        counts.setflags(write=False)
        return counts

    @property
    def digest(self) -> str:
        """Stable content digest over every field of the profile.

        Used by the artifact cache to key search outcomes against the
        exact profile they were derived from: sha256 over the header
        and the dense histogram's bytes.  Memoized per instance (the
        profile is frozen).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            h = hashlib.sha256(b"conflict-profile-v1")
            h.update(
                f"|n={self.n}|compulsory={self.compulsory}|capacity={self.capacity}"
                f"|accesses={self.accesses}|beyond={self.beyond_window}|".encode()
            )
            h.update(self.counts)
            cached = h.hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    @property
    def total_weight(self) -> int:
        """Sum of all vector counts."""
        return int(self.weights.sum())

    @property
    def num_distinct_vectors(self) -> int:
        return len(self.vectors)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(vectors, counts) for the non-zero entries, vectors ascending
        (the profile's own read-only arrays)."""
        return self.vectors, self.weights

    def weight_of(self, vector: int) -> int:
        """``misses(v)`` for a single vector."""
        if not 0 <= vector < (1 << self.n):
            raise ValueError(f"vector {vector:#x} does not fit in {self.n} bits")
        i = int(np.searchsorted(self.vectors, vector))
        if i < len(self.vectors) and int(self.vectors[i]) == vector:
            return int(self.weights[i])
        return 0

    @classmethod
    def merge(cls, profiles) -> "ConflictProfile":
        """One-pass pointwise sum of any number of profiles.

        Accepts any iterable, consumed lazily: a generator of per-shard
        or per-window profiles never holds more than one addend plus
        one dense ``2^n`` accumulator, freed on return.  Equivalent to
        chaining :meth:`merged_with` (property-tested) without the
        intermediate profile objects.
        """
        iterator = iter(profiles)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("merge needs at least one profile") from None
        counts = np.zeros(1 << first.n, dtype=np.int64)
        header = dict.fromkeys(_HEADER, 0)
        for profile in chain([first], iterator):
            if profile.n != first.n:
                raise ValueError(f"window sizes differ: {first.n} vs {profile.n}")
            # A profile's vectors are distinct, so no index repeats.
            counts[profile.vectors] += profile.weights
            for name in _HEADER:
                header[name] += getattr(profile, name)
        return cls(first.n, counts, **header)

    def merged_with(self, other: "ConflictProfile") -> "ConflictProfile":
        """Pointwise sum of two profiles over the same window."""
        return ConflictProfile.merge((self, other))

    def top_vectors(self, k: int) -> list[tuple[int, int]]:
        """The ``k`` heaviest conflict vectors as (vector, count) pairs,
        ties broken by ascending vector."""
        # The vectors ascend, so a stable sort on the negated counts
        # keeps tied vectors in that order.
        order = np.argsort(-self.weights, kind="stable")[:k]
        return [(int(self.vectors[i]), int(self.weights[i])) for i in order]

    def save(self, target: str | Path | BinaryIO) -> None:
        """Write a compressed ``.npz`` archive (``n``, the dense
        ``counts`` and ``meta``) to a path or binary file."""
        np.savez_compressed(
            target,
            n=self.n,
            counts=self.counts,
            meta=np.array(
                [self.compulsory, self.capacity, self.accesses, self.beyond_window],
                dtype=np.int64,
            ),
        )

    @classmethod
    def load(cls, source: str | Path | BinaryIO) -> "ConflictProfile":
        """Read a :meth:`save` archive from a path or binary file."""
        with np.load(source) as data:
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


#: The header fields a profile carries beside its support.
_HEADER = ("compulsory", "capacity", "accesses", "beyond_window")


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
    enumerate the blocks above them — work proportional to the conflict
    pairs emitted, for every requested capacity at once.  Bit-identical
    at each capacity to the literal Fig. 1 transcription over an LRU
    stack, a test-side oracle (property-tested).
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
    The pairs themselves are enumerated chunk by chunk, see
    :func:`_bin_chunk`.
    """
    caps = np.unique(np.asarray(capacities, dtype=np.int64))
    if caps[0] < 1:
        raise ValueError(f"capacity must be >= 1 block, got {caps[0]}")
    if chunk_size is None:
        chunk_size = _PROFILE_CHUNK
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    count = len(blocks)
    low = (blocks & np.uint64(mask(n))).astype(np.int64)
    prev, nxt = program_order_links(blocks)
    bins = _PairBins(len(caps) << n)
    # Repeats per depth bucket: bucket k holds depths in
    # [caps[k-1], caps[k]), bucket K the capacity misses of every size.
    per_bucket = np.zeros(len(caps) + 1, dtype=np.int64)
    for t0, live, live_nxt, lo, depth in walk_chunks(prev, nxt, chunk_size):
        bucket = np.searchsorted(caps, depth, side="right")
        per_bucket += np.bincount(bucket[depth >= 0], minlength=len(caps) + 1)
        # Depth-0 reuses are conflicts with no blocks above: no pairs.
        rows = np.flatnonzero((depth > 0) & (bucket < len(caps)))
        if len(rows):
            _bin_chunk(
                bins, low, nxt, t0, live, live_nxt, lo, rows, bucket[rows] << n
            )
    hist = bins.histogram()

    cumulative = np.cumsum(hist.reshape(len(caps), 1 << n), axis=0)
    beyond = cumulative[:, 0].copy()
    cumulative[:, 0] = 0
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


def _bin_chunk(bins, low, nxt, t0, live, live_nxt, lo, rows, high) -> None:
    """Bin the pairs of one :func:`~repro.profiling.reuse.walk_chunks`
    chunk's conflicts ``rows`` (offsets from ``t0``); ``low`` holds the
    trace's hashed block bits and ``high`` each row's bits above them.

    The pairs of an access are the candidates in its reuse interval
    that are still live at it.  In a span with enough of them (see
    ``_SPAN_WORK``) they split in two:

    * **persistent** — candidates born before the span and retiring
      after it are live at every access of the span, so an access's
      persistent pairs are one suffix of the span's compacted
      persistent array, which :func:`_bin_suffixes` broadcasts;
    * **transient** — candidates retiring inside the span and the
      span's own slots, gathered one by one with a liveness test.

    Accesses of the other spans gather their whole interval the same
    way.  Either way each pair is binned once, so the result does not
    depend on the chunking.
    """
    size = len(lo)
    first = min(int(lo[rows].min()), live.size)
    m = live.size - first
    # Candidates: the live slots from the earliest interval on, then the
    # chunk's own slots.  ``death`` is when each retires, from t0 on.
    death = np.concatenate([live_nxt[first:], nxt[t0 : t0 + size]]) - t0
    cand_low = np.concatenate([low[live[first:]], low[t0 : t0 + size]])
    start = lo[rows] - first
    keys = high | cand_low[m + rows]
    span = _SPAN
    spans = rows // span
    work = np.bincount(spans, weights=m + rows - start)
    wide = np.flatnonzero(work[spans] >= _SPAN_WORK)
    # Gather ranges [begin, end) into (src_death, src_low), per row.
    begin, end = start, m + rows
    src_death, src_low = death, cand_low
    if len(wide):
        stride = m + size
        wrows = rows[wide]
        wstart = start[wide]
        wkeys = keys[wide]
        spans = spans[wide]
        cuts = [0, *(np.flatnonzero(np.diff(spans)) + 1).tolist(), len(spans)]
        for i0, i1 in zip(cuts[:-1], cuts[1:]):
            u0 = int(spans[i0]) * span
            persistent = np.flatnonzero(death[: m + u0] >= min(u0 + span, size))
            _bin_suffixes(
                bins,
                wkeys[i0:i1],
                np.searchsorted(persistent, wstart[i0:i1]),
                cand_low[persistent],
            )
        # Each span's transient list, keyed (span, candidate): the older
        # candidates retiring inside it, then its own slots.
        index = np.arange(stride, dtype=np.int64)
        born = (index - m) // span
        dies = death // span
        dying = np.flatnonzero((death < size) & (born < dies))
        tkey = np.sort(
            np.concatenate([dies[dying] * stride + dying, born[m:] * stride + index[m:]])
        )
        tcand = tkey % stride
        src_death = np.concatenate([death, death[tcand]])
        src_low = np.concatenate([cand_low, cand_low[tcand]])
        begin, end = begin.copy(), end.copy()
        begin[wide] = stride + np.searchsorted(tkey, spans * stride + wstart)
        end[wide] = stride + np.searchsorted(tkey, spans * stride + m + wrows)
    ends = np.cumsum(end - begin)
    r0 = 0
    while r0 < len(rows):
        done = int(ends[r0 - 1]) if r0 else 0
        r1 = int(np.searchsorted(ends, done + _GATHER_CELLS, side="right"))
        r1 = max(r1, r0 + 1)
        take = end[r0:r1] - begin[r0:r1]
        flat = np.arange(int(ends[r1 - 1]) - done, dtype=np.int64)
        flat += np.repeat(begin[r0:r1] - (ends[r0:r1] - take - done), take)
        # A candidate is above the access on the LRU stack iff it is
        # still its block's latest occurrence then.
        alive = np.take(src_death, flat) > np.repeat(rows[r0:r1], take)
        values = np.repeat(keys[r0:r1], take)
        values ^= np.take(src_low, flat)
        np.compress(alive, values, out=bins.reserve(int(np.count_nonzero(alive))))
        r0 = r1


def _buffer_cells(bins: int) -> int:
    """Buffer cells for a ``bins``-bin histogram: 2.5 per bin, rounded
    up to a power of two, at least ``_GATHER_CELLS`` (one gather batch)
    and at most ``_PAIR_BUFFER``."""
    cells = 1 << ((5 * bins + 1) // 2 - 1).bit_length()
    return min(_PAIR_BUFFER, max(_GATHER_CELLS, cells))


class _PairBins:
    """A ``bincount`` histogram fed through one preallocated buffer.

    Bin ``dump``, one past the real bins, takes the cells a broadcast
    writes that belong to no pair; :meth:`histogram` drops it.
    """

    def __init__(self, bins: int):
        self.dump = bins
        self._hist = np.zeros(bins + 1, dtype=np.int64)
        self._buf = np.empty(_buffer_cells(bins), dtype=np.int64)
        self._fill = 0

    def _flush(self) -> None:
        if self._fill:
            self._hist += np.bincount(
                self._buf[: self._fill], minlength=self._hist.size
            )
            self._fill = 0

    def reserve(self, cells: int) -> np.ndarray:
        """The next ``cells`` buffer entries, binned at the next flush."""
        if self._fill + cells > self._buf.size:
            self._flush()
            if cells > self._buf.size:
                self._buf = np.empty(cells, dtype=np.int64)
        out = self._buf[self._fill : self._fill + cells]
        self._fill += cells
        return out

    def outer(self, keys: np.ndarray, lows: np.ndarray, skip: np.ndarray) -> None:
        """Bin ``keys[i] ^ lows[j]`` for every ``i, j``, except that the
        first ``skip[i]`` cells of row ``i`` go to the dump bin.
        ``skip`` ascends."""
        width = len(lows)
        per = max(1, self._buf.size // max(width, 1))
        for r0 in range(0, len(keys), per):
            row_keys = keys[r0 : r0 + per]
            out = self.reserve(len(row_keys) * width).reshape(len(row_keys), width)
            np.bitwise_xor(row_keys[:, None], lows[None, :], out=out)
            row_skip = skip[r0 : r0 + per]
            masked = min(int(row_skip[-1]), width)
            if masked > 0:
                top = int(np.searchsorted(row_skip, 0, side="right"))
                np.putmask(
                    out[top:, :masked],
                    np.arange(masked) < row_skip[top:, None],
                    self.dump,
                )

    def histogram(self) -> np.ndarray:
        self._flush()
        return self._hist[:-1]


def _bin_suffixes(bins: _PairBins, keys, starts, lows) -> None:
    """Bin ``keys[i] ^ lows[j]`` for every ``j >= starts[i]``.

    Sorted by start, the wanted cells form a staircase.  It is cut at a
    few starts taken at row quantiles (more when the starts spread
    wider, weighed by ``_CUT_COST``); each cut broadcasts its columns up
    to the next cut against every row that reaches them, and only the
    rows starting inside those columns dump their leading cells.
    """
    order = np.argsort(starts, kind="stable")
    starts = np.minimum(starts[order], len(lows))
    keys = keys[order]
    spread = int(starts[-1] - starts[0])
    parts = min(int((len(keys) * spread / _CUT_COST) ** 0.5) + 1, 32)
    cuts = sorted(set(starts[(np.arange(parts) * len(keys)) // parts].tolist()))
    reach = [*np.searchsorted(starts, cuts[1:]).tolist(), len(keys)]
    for c0, c1, i1 in zip(cuts, [*cuts[1:], len(lows)], reach):
        bins.outer(keys[:i1], lows[c0:c1], skip=starts[:i1] - c0)


def profile_trace(
    trace: Trace, geometry: CacheGeometry, n: int
) -> ConflictProfile:
    """Profile a :class:`~repro.trace.Trace` for a cache geometry.

    Runs the vectorized :func:`profile_blocks` kernel: an exact reuse
    depth per access (``O(N log^2 N)`` array passes), then broadcast
    and gather work proportional to the conflict pairs emitted, with no
    per-access Python iteration.
    """
    blocks = trace.block_addresses(geometry.block_size)
    return profile_blocks(blocks, geometry.num_blocks, n)

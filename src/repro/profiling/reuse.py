"""Reuse-distance computation.

The reuse distance of an access is the number of *distinct* blocks
touched since the previous access to the same block (the LRU stack
depth).  The paper's capacity filter classifies accesses with reuse
distance reaching the cache capacity as capacity misses.

:func:`walk_chunks` is the vectorized pass the Fig. 1 profiler runs;
:func:`reuse_distances` collects its per-access depths for analysis.
"""

from __future__ import annotations

import numpy as np

from repro.cache.engine.core import program_order_links

__all__ = [
    "reuse_distance_histogram",
    "reuse_distances",
    "walk_chunks",
]


#: Longest chunk :func:`walk_chunks` uses: its packed sort keys (value,
#: position, count) then fit int64 for traces of up to 2**31 accesses.
_MAX_CHUNK = 1 << 16


def walk_chunks(prev: np.ndarray, nxt: np.ndarray, chunk_size: int):
    """Walk a trace in chunks of accesses with every access's exact LRU depth.

    ``prev`` and ``nxt`` are the same-block occurrence links of
    :func:`repro.cache.engine.core.program_order_links`: ``prev[t]`` is
    the previous access to ``t``'s block (-1 on first touch) and
    ``nxt[t]`` the next (``len(prev)`` if none), so slot ``t`` is its
    block's latest occurrence at any time in ``(t, nxt[t]]``.  Yields
    ``(t0, live, live_nxt, lo, depth)`` per chunk ``[t0, t1)``:

    * ``live`` — the global times of the slots live at ``t0`` (the
      latest occurrence of each block touched before the chunk),
      ascending.  The chunk's *candidates* are ``live`` followed by
      the chunk's own times ``t0 .. t1 - 1``;
    * ``live_nxt`` — ``nxt[live]``, when each live slot retires;
    * ``lo`` — per access, the first candidate after its previous
      occurrence, so its reuse interval is candidates ``lo`` up to its
      own slot at ``len(live) + t - t0``;
    * ``depth`` — per access, the number of distinct blocks touched
      strictly between ``prev[t]`` and ``t`` (-1 for first touches).

    The interval holds ``len(live) + t - t0 - lo`` candidates.  Each
    earlier access ``r`` of the chunk with ``prev[r] > prev[t]``
    retired one of them, and nothing else did, so (Bennett & Kruskal,
    "LRU stack processing", 1975)::

        depth[t] = len(live) + t - t0 - lo - #{t0 <= r < t : prev[r] > prev[t]}

    The counts come from :func:`_earlier_greater` for all chunks at
    once; ``live`` is compacted once per chunk.  Chunks are capped at
    ``_MAX_CHUNK`` accesses.
    """
    count = len(prev)
    chunk_size = max(1, min(chunk_size, count, _MAX_CHUNK))
    retired = _earlier_greater(prev, chunk_size)
    live = np.empty(0, dtype=np.int64)
    live_nxt = np.empty(0, dtype=np.int64)  # nxt[live], kept in step
    for t0 in range(0, count, chunk_size):
        t1 = min(t0 + chunk_size, count)
        chunk_prev = prev[t0:t1]
        offset = np.arange(t1 - t0, dtype=np.int64)
        # Live slots are all older than t0, so an in-chunk previous
        # occurrence starts its interval past all of them.
        lo = np.searchsorted(live, chunk_prev, side="right")
        lo += np.maximum(chunk_prev - t0 + 1, 0)
        depth = live.size + offset - lo - retired[t0:t1]
        depth[chunk_prev < 0] = -1
        yield t0, live, live_nxt, lo, depth
        keep = live_nxt >= t1
        chunk_nxt = nxt[t0:t1]
        born = chunk_nxt >= t1
        live = np.concatenate([live[keep], t0 + offset[born]])
        live_nxt = np.concatenate([live_nxt[keep], chunk_nxt[born]])


def _earlier_greater(values: np.ndarray, width: int) -> np.ndarray:
    """``out[i] = #{j < i : values[j] > values[i]}``, ``j`` and ``i`` in
    the same aligned run of ``width`` positions; values are >= -1.

    A bottom-up merge sort inside every run at once.  Level ``k``
    merges aligned blocks of ``2 * half`` positions (``half = 2**k``),
    and every (earlier, later) pair of a run is split across the two
    halves of exactly one block.  After the merge, a right-half element
    at block position ``p`` with ``r`` right-half elements at or before
    it has ``p - r + 1`` left-half elements not greater than it, hence
    ``half - 1 - p + r`` greater ones.  Each element is one int64 key
    ``value | position in run | count so far`` — positions are unique,
    so the count bits never decide the order and ride along through
    every sort: no argsort, no scatter until the end.
    """
    count = len(values)
    runs = -(-count // width)
    pow2 = 1 << (width - 1).bit_length()
    bits = max(pow2 - 1, 1).bit_length()  # counts stay below pow2
    # Shifted up by one and zero-padded to a power of two per run: the
    # padding sorts below every real value, so it is never "greater",
    # and its own counts are dropped.
    padded = np.zeros(runs * width, dtype=np.int64)
    padded[:count] = values + 1
    keys = np.zeros((runs, pow2), dtype=np.int64)
    keys[:, :width] = padded.reshape(runs, width)
    keys <<= bits
    keys |= np.arange(pow2, dtype=np.int64)
    keys <<= bits
    half, level = 1, 0
    while half < pow2:
        keys = np.sort(keys.reshape(-1, 2 * half), axis=1)
        right = (keys >> (bits + level)) & 1
        greater = np.cumsum(right, axis=1)
        greater += half - 1 - np.arange(2 * half, dtype=np.int64)
        greater *= right
        keys += greater
        half *= 2
        level += 1
    keys = keys.reshape(runs, pow2)
    out = np.empty_like(keys)
    np.put_along_axis(out, (keys >> bits) & (pow2 - 1), keys & (pow2 - 1), axis=1)
    return out[:, :width].ravel()[:count]


def reuse_distances(blocks: np.ndarray, chunk_size: int = 1 << 12) -> np.ndarray:
    """Per-access reuse distances (exact LRU stack depths); -1 marks
    first touches.  :func:`walk_chunks` over ``chunk_size``-access
    chunks, its depths collected."""
    prev, nxt = program_order_links(np.asarray(blocks, dtype=np.uint64))
    depths = [depth for *_, depth in walk_chunks(prev, nxt, chunk_size)]
    return np.concatenate(depths) if depths else np.empty(0, dtype=np.int64)


def reuse_distance_histogram(
    blocks: np.ndarray, max_distance: int | None = None
) -> dict[int, int]:
    """Histogram of reuse distances (first touches keyed as -1).

    Distances above ``max_distance`` are pooled under that bound, which
    matches how the capacity filter consumes the information.
    """
    distances = reuse_distances(blocks)
    if max_distance is not None:
        distances = np.minimum(distances, max_distance)
    values, counts = np.unique(distances, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))

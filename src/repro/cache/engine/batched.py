"""Batched candidate evaluation: K index functions, one trace.

The search and experiment layers repeatedly exact-verify many candidate
hash functions on the same trace.  :func:`evaluate_many` scores a whole
front: a direct-mapped geometry counts each candidate with the same
one-row radix kernel :func:`misses_for_index_streams` that
:func:`~repro.cache.engine.dispatch.simulate` uses, while associative
geometries share one working set and one set of program-order
occurrence links across the front, so each candidate pays only its
set-grouping sort and the backend depth kernel.

Index streams are laid out one *row* per candidate (``(K, N)``,
C-contiguous) so every sort, gather and reduction walks memory
sequentially.  Work is chunked so peak memory stays near
:data:`CHUNK_ELEMENTS` array elements regardless of trace length or
candidate count.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.backend import active_backend
from repro.cache.engine.core import (
    compulsory_count,
    lru_miss_vector_shared,
    program_order_links,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.gf2.hashfn import XorHashFunction

__all__ = [
    "misses_for_index_streams",
    "working_set",
    "working_set_misses",
    "evaluate_many",
]

#: Soft cap on intermediate array size (elements) for chunked passes.
CHUNK_ELEMENTS = 1 << 22


def misses_for_index_streams(
    index_streams: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Direct-mapped miss counts for each row of ``index_streams``.

    ``index_streams`` has shape ``(K, N)``: one set-identity stream per
    candidate.  ``keys`` must identify *blocks* (block addresses or any
    bijective relabeling of them) — equal keys then imply equal set ids
    in every stream, so after the stable per-row sort an access hits iff
    its key equals the preceding key, and the set comparison is
    redundant.  The argsort and the consecutive-change count run on a
    whole chunk of candidates at once (``axis=1`` reductions over
    contiguous rows), so the per-candidate cost is one radix sort with
    no Python-level per-access work.
    """
    index_streams = np.asarray(index_streams)
    if index_streams.ndim != 2:
        raise ValueError(
            f"index_streams must be 2-D (K, N), got shape {index_streams.shape}"
        )
    num_candidates, count = index_streams.shape
    misses = np.zeros(num_candidates, dtype=np.int64)
    if count == 0 or num_candidates == 0:
        return misses
    keys = np.asarray(keys)
    # NumPy's stable sort is radix only for <= 16-bit integers; wider
    # rows fall back to a comparison sort (~9x slower).  Index streams
    # carry m-bit set ids, so they almost always narrow.
    if (
        index_streams.dtype.kind in "ui"
        and index_streams.dtype.itemsize > 2
        and int(index_streams.max()) < 1 << 16
        and (index_streams.dtype.kind == "u" or int(index_streams.min()) >= 0)
    ):
        index_streams = index_streams.astype(np.uint16)
    rows_per_chunk = max(1, CHUNK_ELEMENTS // count)
    for lo in range(0, num_candidates, rows_per_chunk):
        ids = index_streams[lo : lo + rows_per_chunk]
        order = np.argsort(ids, axis=1, kind="stable")
        sorted_keys = keys[order]
        change = sorted_keys[:, 1:] != sorted_keys[:, :-1]
        misses[lo : lo + rows_per_chunk] = 1 + np.count_nonzero(change, axis=1)
    return misses


def working_set(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct blocks of a trace and each access's dense label.

    ``inverse`` (``uint32``) maps every access to its block's position
    in ``unique_blocks``; it is a valid block key for
    :func:`misses_for_index_streams` at half the gather bandwidth of
    the ``uint64`` addresses.
    """
    unique_blocks, inverse = np.unique(blocks, return_inverse=True)
    return unique_blocks, inverse.astype(np.uint32)


def working_set_misses(unique_ids: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Direct-mapped miss counts of set-id rows given per distinct block.

    ``unique_ids`` has shape ``(K, U)``: row ``k`` is candidate ``k``'s
    set identity of each of the ``U`` distinct blocks of
    :func:`working_set`.  Rows are expanded through ``inverse`` to the
    whole trace and counted by :func:`misses_for_index_streams` a chunk
    at a time, so peak memory stays near :data:`CHUNK_ELEMENTS`.
    """
    num_candidates = len(unique_ids)
    misses = np.zeros(num_candidates, dtype=np.int64)
    rows_per_chunk = max(1, CHUNK_ELEMENTS // max(len(inverse), 1))
    for lo in range(0, num_candidates, rows_per_chunk):
        expanded = unique_ids[lo : lo + rows_per_chunk][:, inverse]
        misses[lo : lo + rows_per_chunk] = misses_for_index_streams(
            expanded, inverse
        )
    return misses


def evaluate_many(
    trace,
    geometry: CacheGeometry,
    functions: Sequence[XorHashFunction],
) -> list[CacheStats]:
    """Exact stats for K candidate hash functions in one trace replay.

    ``trace`` may be a :class:`~repro.trace.trace.Trace` or a raw
    block-address array.  Equivalent to calling
    :func:`~repro.cache.engine.dispatch.simulate` K times
    (property-tested); associative geometries share the working set and
    occurrence links across the front.
    """
    if hasattr(trace, "block_addresses"):
        blocks = trace.block_addresses(geometry.block_size)
    else:
        blocks = np.asarray(trace, dtype=np.uint64)
    for k, fn in enumerate(functions):
        if fn.m != geometry.index_bits:
            raise ValueError(
                f"candidate {k} produces {fn.m} index bits, geometry needs "
                f"{geometry.index_bits}"
            )
        if not fn.is_full_rank:
            # Same contract as XorIndexing on the sequential path: a
            # rank-deficient function breaks the paper's bijectivity
            # requirement and must not be silently scored.
            raise ValueError(
                f"candidate {k} requires a full-rank hash function "
                f"(rank {fn.rank} < m={fn.m})"
            )
    functions = list(functions)
    if not functions:
        return []
    if len(blocks) == 0:
        return [CacheStats(accesses=0, misses=0) for _ in functions]
    count = len(blocks)
    if geometry.is_direct_mapped:
        compulsory = compulsory_count(blocks)
        miss_counts = [
            misses_for_index_streams(fn.apply_array(blocks)[None, :], blocks)[0]
            for fn in functions
        ]
    else:
        # Hash the *working set*, not the trace, and share the per-trace
        # precomputation: equal keys imply equal set ids under every
        # candidate, so the same-key occurrence links are
        # candidate-independent — one key sort serves the whole front,
        # and each candidate pays only its set-grouping sort plus the
        # backend depth kernel.
        unique_blocks, inverse = working_set(blocks)
        compulsory = len(unique_blocks)
        prev_program, next_program = program_order_links(inverse)
        backend = active_backend()
        miss_counts = [
            np.count_nonzero(
                lru_miss_vector_shared(
                    fn.apply_array(unique_blocks)[inverse],
                    inverse,
                    prev_program,
                    next_program,
                    geometry.associativity,
                    backend,
                )
            )
            for fn in functions
        ]
    return [
        CacheStats(accesses=count, misses=int(misses), compulsory=compulsory)
        for misses in miss_counts
    ]

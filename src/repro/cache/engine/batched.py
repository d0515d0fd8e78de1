"""Batched candidate evaluation: K index functions, one trace replay.

The search and experiment layers repeatedly exact-verify many candidate
hash functions on the same trace.  Doing that one candidate at a time
recomputes the same masked parities and re-walks the trace K times in
Python-call-heavy code.  This module stacks the column masks of all K
candidates and computes every index stream in one NumPy pass, then
scores all streams with per-row stable argsorts — the whole candidate
front costs one batched replay.

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
from repro.cache.engine.core import lru_miss_vector_shared, program_order_links
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.gf2.bitvec import parity_table, parity_u64
from repro.gf2.hashfn import XorHashFunction

__all__ = [
    "stacked_index_streams",
    "misses_for_index_streams",
    "working_set",
    "working_set_misses",
    "evaluate_many",
]

#: Soft cap on intermediate array size (elements) for chunked passes.
CHUNK_ELEMENTS = 1 << 22


def stacked_index_streams(
    functions: Sequence[XorHashFunction], blocks: np.ndarray
) -> np.ndarray:
    """Index streams of K hash functions as one ``(K, N)`` uint32 array.

    All functions must share the hashed window ``n`` and width ``m``.
    Row ``k`` equals ``functions[k].apply_array(blocks)``; the batch
    computes one parity pass per index bit across all K candidates
    instead of K separate evaluations.
    """
    if not functions:
        return np.zeros((0, len(blocks)), dtype=np.uint32)
    n = functions[0].n
    m = functions[0].m
    for k, fn in enumerate(functions):
        if fn.n != n or fn.m != m:
            raise ValueError(
                f"candidate {k} is sized (n={fn.n}, m={fn.m}); "
                f"the batch requires (n={n}, m={m})"
            )
    blocks = np.asarray(blocks, dtype=np.uint64)
    count = len(blocks)
    num_functions = len(functions)
    out = np.zeros((num_functions, count), dtype=np.uint32)
    if count == 0:
        return out
    cols_per_chunk = max(1, CHUNK_ELEMENTS // max(num_functions, 1))
    if n <= 16:
        table = parity_table()
        small = (blocks & np.uint64((1 << n) - 1)).astype(np.uint16)
        col_masks = np.array(
            [[fn.columns[c] for fn in functions] for c in range(m)], dtype=np.uint16
        )
        for lo in range(0, count, cols_per_chunk):
            chunk = small[None, lo : lo + cols_per_chunk]
            view = out[:, lo : lo + cols_per_chunk]
            for c in range(m):
                bits = table[chunk & col_masks[c][:, None]]
                view |= bits.astype(np.uint32) << np.uint32(c)
    else:
        masked = blocks & np.uint64((1 << n) - 1)
        for k, fn in enumerate(functions):
            row = out[k]
            for c, col in enumerate(fn.columns):
                bits = parity_u64(masked, col).astype(np.uint32)
                row |= bits << np.uint32(c)
    return out


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
    block-address array.  Equivalent to calling the per-function
    simulators K times (property-tested), but the index streams are
    computed in one stacked pass and — for direct-mapped geometries —
    scored by the batched sort kernel.
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
    # Hash the *working set*, not the trace: index streams are computed
    # once per distinct block and expanded through the inverse mapping.
    unique_blocks, inverse = working_set(blocks)
    unique_streams = stacked_index_streams(functions, unique_blocks)
    compulsory = len(unique_blocks)
    count = len(blocks)
    if geometry.is_direct_mapped:
        miss_counts = working_set_misses(unique_streams, inverse)
    else:
        # Shared per-trace precomputation: equal keys imply equal set
        # ids under every candidate, so the same-key occurrence links
        # are candidate-independent — one key sort serves the whole
        # front, and each candidate pays only its set-grouping sort
        # plus the backend depth kernel.
        prev_program, next_program = program_order_links(inverse)
        backend = active_backend()
        miss_counts = [
            int(
                np.count_nonzero(
                    lru_miss_vector_shared(
                        unique_streams[k][inverse],
                        inverse,
                        prev_program,
                        next_program,
                        geometry.associativity,
                        backend,
                    )
                )
            )
            for k in range(len(functions))
        ]
    return [
        CacheStats(accesses=count, misses=int(misses), compulsory=compulsory)
        for misses in miss_counts
    ]

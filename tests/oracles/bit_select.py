"""Enumeration oracle for the optimal bit-selecting function.

The scorer :func:`repro.search.exhaustive.optimal_bit_select` used
before its branch and bound: every one of the ``C(n, m)`` selection
masks is scored and the first minimum in ``itertools.combinations``
order wins.  Exact mode counts each mask's direct-mapped misses with
the engine's sort kernel on the trace's working set; estimate mode is
the Eq. 4 definition, a chunked broadcast of the membership test.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.cache.engine import misses_for_index_streams
from repro.profiling.conflict_profile import ConflictProfile

#: Soft cap on intermediate array size (elements) for chunked passes.
CHUNK_ELEMENTS = 1 << 22


def enumerate_bit_select_masks(n: int, m: int) -> np.ndarray:
    """All ``C(n, m)`` selection masks as a ``uint64`` array.

    ``uint64`` keeps wide windows exact: a ``uint32`` mask silently
    truncated selections of bits >= 32 even though the estimator has no
    width cap (property-tested at n = 40).
    """
    if not 0 < m <= n:
        raise ValueError(f"need 0 < m <= n, got n={n}, m={m}")
    if n > 64:
        raise ValueError(f"selection masks pack into uint64; n={n} > 64")
    masks = []
    for combo in combinations(range(n), m):
        value = 0
        for bit in combo:
            value |= 1 << bit
        masks.append(value)
    return np.array(masks, dtype=np.uint64)


def _best_exact(n: int, masks: np.ndarray, blocks: np.ndarray) -> tuple[int, int]:
    """Score every selection mask by exact direct-mapped simulation.

    The masked block address is a valid set identity (uncompressed:
    two blocks collide iff it matches), so a chunk of candidate masks
    is scored in one ``(R, N)`` pass of :func:`misses_for_index_streams`,
    with each access's working-set label as its block key.
    """
    blocks = np.asarray(blocks, dtype=np.uint64)
    if len(blocks) == 0:
        return int(masks[0]), 0
    unique_blocks, inverse = np.unique(blocks, return_inverse=True)
    inverse = inverse.astype(np.uint32)
    best_mask = int(masks[0])
    best = None
    rows_per_chunk = max(1, CHUNK_ELEMENTS // len(blocks))
    for lo in range(0, len(masks), rows_per_chunk):
        chunk = masks[lo : lo + rows_per_chunk].astype(np.uint64)
        ids = (unique_blocks[None, :] & chunk[:, None])[:, inverse]
        misses = misses_for_index_streams(ids, inverse)
        i = int(np.argmin(misses))
        if best is None or int(misses[i]) < best:
            best = int(misses[i])
            best_mask = int(chunk[i])
    assert best is not None
    return best_mask, best


def _best_estimated(masks: np.ndarray, profile: ConflictProfile) -> tuple[int, int]:
    vectors, weights = profile.support()
    return _best_estimated_support(masks, vectors, weights)


def _best_estimated_support(
    masks: np.ndarray, vectors: np.ndarray, weights: np.ndarray
) -> tuple[int, int]:
    """Estimate-mode scoring against raw support arrays.

    Split out of :func:`_best_estimated` so wide windows (n > 32,
    where a dense profile array is impractical) stay testable; all
    operands are ``uint64`` so no selection bit truncates.  The null
    space of a bit-select function is the span of the unselected
    coordinates, so a vector survives mask ``M`` iff ``v & M == 0``.
    """
    if len(vectors) == 0:
        return int(masks[0]), 0
    vectors = np.asarray(vectors).astype(np.uint64)
    masks = np.asarray(masks).astype(np.uint64)
    weights = np.asarray(weights).astype(np.int64)
    costs = np.zeros(len(masks), dtype=np.int64)
    chunk = max(1, CHUNK_ELEMENTS // max(len(vectors), 1))
    for lo in range(0, len(masks), chunk):
        sub = masks[lo : lo + chunk]
        hits = (vectors[None, :] & sub[:, None]) == 0
        costs[lo : lo + chunk] = hits @ weights
    best_index = int(np.argmin(costs))
    return int(masks[best_index]), int(costs[best_index])

"""Exhaustive search over bit-selecting functions (Patel et al., ref [8]).

Table 3 compares the paper's heuristic against the *optimal*
bit-selecting function.  The family is small — ``C(n, m)`` selections —
so it can be enumerated outright.  Two scoring modes:

* ``exact``  — simulate the direct-mapped cache for every selection
  (vectorized); this is the true optimum, used for Table 3 on the short
  PowerStone traces exactly as the paper did;
* ``estimate`` — score with the Eq. 4 profile estimate; fast, and shows
  how close the estimate ranks functions to the exact optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.cache.engine.batched import (
    CHUNK_ELEMENTS,
    working_set,
    working_set_misses,
)
from repro.gf2.bitpack import (
    pack_bit_planes,
    packed_any_rows,
    packing_pays,
    weighted_popcount,
)
from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import ConflictProfile

__all__ = [
    "ExhaustiveResult",
    "optimal_bit_select",
    "enumerate_bit_select_masks",
]


@dataclass(frozen=True)
class ExhaustiveResult:
    """Best bit-selecting function found by exhaustive enumeration."""

    function: XorHashFunction
    misses: int
    evaluated: int
    mode: str
    seconds: float


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


def optimal_bit_select(
    n: int,
    m: int,
    blocks: np.ndarray | None = None,
    profile: ConflictProfile | None = None,
    mode: str = "exact",
) -> ExhaustiveResult:
    """Find the best bit-selecting index function exhaustively.

    ``mode="exact"`` requires ``blocks`` (the block-address trace);
    ``mode="estimate"`` requires ``profile``.
    """
    t0 = time.perf_counter()
    masks = enumerate_bit_select_masks(n, m)
    if mode == "exact":
        if blocks is None:
            raise ValueError("exact mode needs the block-address trace")
        best_mask, best_misses = _best_exact(n, masks, blocks)
    elif mode == "estimate":
        if profile is None:
            raise ValueError("estimate mode needs a conflict profile")
        if profile.n != n:
            raise ValueError(f"profile window {profile.n} != n={n}")
        best_mask, best_misses = _best_estimated(masks, profile)
    else:
        raise ValueError(f"mode must be 'exact' or 'estimate', got {mode!r}")
    selected = [r for r in range(n) if (best_mask >> r) & 1]
    return ExhaustiveResult(
        function=XorHashFunction.bit_select(n, selected),
        misses=int(best_misses),
        evaluated=len(masks),
        mode=mode,
        seconds=time.perf_counter() - t0,
    )


def _best_exact(n: int, masks: np.ndarray, blocks: np.ndarray) -> tuple[int, int]:
    """Score every selection mask with the engine's batched sort kernel.

    The masked block address is a valid set identity (uncompressed:
    two blocks collide iff it matches), so a chunk of candidate masks
    is scored in one ``(R, N)`` pass of
    :func:`~repro.cache.engine.batched.working_set_misses` instead of R
    separate replays; each score equals direct-mapped
    :func:`~repro.cache.engine.simulate` under the matching
    :class:`~repro.cache.indexing.BitSelectIndexing` (property-tested).
    """
    blocks = np.asarray(blocks, dtype=np.uint64)
    if len(blocks) == 0:
        return int(masks[0]), 0
    unique_blocks, inverse = working_set(blocks)
    best_mask = int(masks[0])
    best = None
    rows_per_chunk = max(1, CHUNK_ELEMENTS // len(blocks))
    for lo in range(0, len(masks), rows_per_chunk):
        chunk = masks[lo : lo + rows_per_chunk].astype(np.uint64)
        misses = working_set_misses(unique_blocks[None, :] & chunk[:, None], inverse)
        i = int(np.argmin(misses))
        if best is None or int(misses[i]) < best:
            best = int(misses[i])
            best_mask = int(chunk[i])
    assert best is not None
    return best_mask, best


def _best_estimated(masks: np.ndarray, profile: ConflictProfile) -> tuple[int, int]:
    vectors, weights = profile.support()
    return _best_estimated_support(masks, vectors, weights, n=profile.n)


def _best_estimated_support(
    masks: np.ndarray,
    vectors: np.ndarray,
    weights: np.ndarray,
    n: int | None = None,
) -> tuple[int, int]:
    """Estimate-mode scoring against raw support arrays.

    Split out of :func:`_best_estimated` so wide windows (n > 32,
    where a dense profile array is impractical) stay testable; all
    operands are ``uint64`` so no selection bit truncates.  Batches
    that :func:`repro.gf2.bitpack.packing_pays` admits run bit-packed:
    a vector survives selection mask ``M`` iff
    ``v & M == 0``, which is an OR-of-planes accumulation
    (:func:`repro.gf2.bitpack.packed_any_rows` — *not* the XOR parity
    kernel), so a mask costs ``popcount(M)`` word-wide OR passes
    instead of a full broadcast row.
    """
    if len(vectors) == 0:
        return int(masks[0]), 0
    vectors = np.asarray(vectors).astype(np.uint64)
    masks = np.asarray(masks).astype(np.uint64)
    weights = np.asarray(weights).astype(np.int64)
    if n is None:
        spread = int(np.bitwise_or.reduce(vectors) | np.bitwise_or.reduce(masks))
        n = max(1, spread.bit_length())
    costs = np.zeros(len(masks), dtype=np.int64)
    if packing_pays(n, len(masks) * len(vectors)):
        planes = pack_bit_planes(vectors, n)
        total = int(weights.sum())
        rows_per_chunk = max(1, (1 << 22) // max(planes.shape[1], 1))
        for lo in range(0, len(masks), rows_per_chunk):
            sub = masks[lo : lo + rows_per_chunk]
            hit_rows = packed_any_rows(planes, sub)
            costs[lo : lo + rows_per_chunk] = total - weighted_popcount(
                hit_rows, weights
            )
    else:
        # Narrow windows: chunked broadcast of the membership test (the
        # null space of a bit-select function is the span of the
        # unselected coordinates).
        chunk = max(1, (1 << 22) // max(len(vectors), 1))
        for lo in range(0, len(masks), chunk):
            sub = masks[lo : lo + chunk]
            hits = (vectors[None, :] & sub[:, None]) == 0
            costs[lo : lo + chunk] = hits @ weights
    best_index = int(np.argmin(costs))
    return int(masks[best_index]), int(costs[best_index])

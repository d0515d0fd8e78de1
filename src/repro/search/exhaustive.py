"""Optimal bit-selecting functions (Patel et al., ref [8]).

Table 3 compares the paper's heuristic against the *optimal*
bit-selecting function over ``C(n, m)`` selections.  A branch and bound
finds it exactly while scoring a few hundred masks instead of all of
them.  Two scoring modes:

* ``exact``  — direct-mapped misses of the selection, simulated; this
  is the true optimum, used for Table 3 on the short PowerStone traces
  exactly as the paper did;
* ``estimate`` — the Eq. 4 profile estimate; shows how close the
  estimate ranks functions to the exact optimum.

Both scores are *monotone*: if selection ``S`` is a subset of ``T``,
two blocks that agree on every bit of ``T`` also agree on every bit of
``S``, so every miss under ``T`` is a miss under ``S`` (and a profiled
vector with ``v & T == 0`` has ``v & S == 0``).  Any superset of a
selection therefore bounds it from below.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.cache.engine import misses_for_index_streams
from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import ConflictProfile

__all__ = ["ExhaustiveResult", "optimal_bit_select"]


@dataclass(frozen=True)
class ExhaustiveResult:
    """Optimal bit-selecting function and how many masks were scored."""

    function: XorHashFunction
    misses: int
    evaluated: int
    mode: str
    seconds: float


def optimal_bit_select(
    n: int,
    m: int,
    blocks: np.ndarray | None = None,
    profile: ConflictProfile | None = None,
    mode: str = "exact",
) -> ExhaustiveResult:
    """Find the best bit-selecting index function exactly.

    ``mode="exact"`` requires ``blocks`` (the block-address trace);
    ``mode="estimate"`` requires ``profile``.  Ties go to the selection
    that ``itertools.combinations(range(n), m)`` lists first.
    """
    t0 = time.perf_counter()
    if not 0 < m <= n:
        raise ValueError(f"need 0 < m <= n, got n={n}, m={m}")
    if n > 64:
        raise ValueError(f"selection masks pack into uint64; n={n} > 64")
    if mode == "exact":
        if blocks is None:
            raise ValueError("exact mode needs the block-address trace")
        blocks = np.asarray(blocks, dtype=np.uint64)

        # The masked block address is a valid set identity: two blocks
        # collide iff they agree on every selected bit.
        def score(mask: int) -> int:
            ids = blocks & np.uint64(mask)
            return int(misses_for_index_streams(ids[None, :], blocks)[0])

    elif mode == "estimate":
        if profile is None:
            raise ValueError("estimate mode needs a conflict profile")
        if profile.n != n:
            raise ValueError(f"profile window {profile.n} != n={n}")
        vectors, weights = profile.support()
        vectors = np.asarray(vectors).astype(np.uint64)
        weights = np.asarray(weights).astype(np.int64)

        # The null space of a bit selection is the span of the
        # unselected coordinates: a vector survives iff it misses them all.
        def score(mask: int) -> int:
            return int(weights[(vectors & np.uint64(mask)) == 0].sum())

    else:
        raise ValueError(f"mode must be 'exact' or 'estimate', got {mode!r}")
    best_mask, best, evaluated = _branch_and_bound(n, m, score)
    selected = [r for r in range(n) if (best_mask >> r) & 1]
    return ExhaustiveResult(
        function=XorHashFunction.bit_select(n, selected),
        misses=best,
        evaluated=evaluated,
        mode=mode,
        seconds=time.perf_counter() - t0,
    )


def _branch_and_bound(
    n: int, m: int, score: Callable[[int], int]
) -> tuple[int, int, int]:
    """Lowest-scoring ``m``-bit mask of an ``n``-bit window, exactly.

    A depth-first search picks bits in ascending order.  The child that
    adds bit ``b`` to the chosen bits ``C`` is bounded by the score of
    ``C | {b, ..., n-1}``, the largest selection below it (admissible
    by monotonicity).  A later sibling's bound scores a subset of this
    one's set, so it is no lower: once one child is pruned, so is the
    rest of the loop.  Pruning needs a bound *strictly* above the
    incumbent, and a leaf replaces it only when strictly lower, so
    leaves are met in ``itertools.combinations`` order and the first
    minimum wins.  The search stops once the incumbent equals the score
    of all ``n`` bits, which no selection can beat.  Returns the mask,
    its score and the number of distinct masks scored.
    """
    scores: dict[int, int] = {}

    def cost(mask: int) -> int:
        if mask not in scores:
            scores[mask] = score(mask)
        return scores[mask]

    full = (1 << n) - 1
    floor = cost(full)
    best_mask, best = 0, None

    def visit(chosen: int, start: int, left: int) -> bool:
        """Extend ``chosen`` by ``left`` bits from ``start`` up; True
        once the incumbent reaches ``floor``."""
        nonlocal best_mask, best
        for b in range(start, n - left + 1):
            child = chosen | (1 << b)
            if best is not None and cost(chosen | (full >> b << b)) > best:
                break
            if left > 1:
                if visit(child, b + 1, left - 1):
                    return True
                continue
            leaf = cost(child)
            if best is None or leaf < best:
                best_mask, best = child, leaf
                if best == floor:
                    return True
        return False

    visit(0, 0, m)
    assert best is not None
    return best_mask, best, len(scores)

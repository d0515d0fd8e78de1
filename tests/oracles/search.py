"""Frozen per-column steepest descent: the oracle of the batched climber.

The paper's Sec. 3.2 descent as it ran before the neighbourhood was
batched: per column, score every candidate replacement, then try the
candidates in increasing cost order until one is a feasible (full-rank,
unvisited) strict improvement.  It carries its own Eq. 4 scorer — a
null-space membership loop over the profile's support plus one chunked
2-D parity pass per column — and shares no code with
:class:`~repro.profiling.estimator.MissEstimator`, so a faster
estimator speeds up the climber it is timed against, not this oracle.
"""

from __future__ import annotations

import time

import numpy as np

from repro.gf2.bitvec import parity_array
from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import ConflictProfile
from repro.search.families import FunctionFamily
from repro.search.result import SearchResult

#: Bound on ``candidates x residue-vectors`` elements per parity pass.
CHUNK_ELEMENTS = 1 << 22


def support_arrays(profile: ConflictProfile) -> tuple[np.ndarray, np.ndarray]:
    """The profile's support vectors (``uint32`` up to 32 bits, else
    ``uint64``) and their ``int64`` weights."""
    vectors, weights = profile.support()
    dtype = np.uint32 if profile.n <= 32 else np.uint64
    return vectors.astype(dtype), weights.astype(np.int64)


def annihilated(vectors: np.ndarray, columns) -> np.ndarray:
    """Boolean mask of ``vectors`` with even parity under every column."""
    alive = np.ones(len(vectors), dtype=bool)
    for col in columns:
        np.logical_and(
            alive, parity_array(vectors & vectors.dtype.type(col)) == 0, out=alive
        )
    return alive


def column_replaced_costs(
    vectors: np.ndarray,
    weights: np.ndarray,
    columns: tuple[int, ...],
    column_index: int,
    candidates: np.ndarray,
) -> np.ndarray:
    """Eq. 4 cost of ``columns`` with ``columns[column_index]`` replaced
    by each candidate mask, as an ``int64`` array."""
    fixed = [col for c, col in enumerate(columns) if c != column_index]
    alive = annihilated(vectors, fixed)
    vectors, weights = vectors[alive], weights[alive]
    candidates = np.asarray(candidates, dtype=vectors.dtype)
    out = np.zeros(len(candidates), dtype=np.int64)
    if len(vectors) == 0:
        return out
    total = int(weights.sum())
    rows = max(1, CHUNK_ELEMENTS // len(vectors))
    for lo in range(0, len(candidates), rows):
        odd = parity_array(candidates[lo : lo + rows, None] & vectors[None, :])
        out[lo : lo + rows] = total - odd.astype(np.int64) @ weights
    return out


def hill_climb_scalar(
    profile: ConflictProfile,
    family: FunctionFamily,
    start: XorHashFunction | None = None,
    max_steps: int | None = None,
) -> SearchResult:
    """Per-column steepest descent; one evaluation for the start plus
    one per scored candidate."""
    t0 = time.perf_counter()
    vectors, weights = support_arrays(profile)
    current = start if start is not None else family.start()
    if not family.contains(current):
        raise ValueError(
            f"start function is not a member of family {family.name!r}"
        )
    if not current.is_full_rank:
        raise ValueError("start function must be full rank")
    current_cost = int(weights[annihilated(vectors, current.columns)].sum())
    evaluations = 1
    start_cost = current_cost
    history = [current_cost]
    visited = {current.canonical_key()}
    steps = 0

    while max_steps is None or steps < max_steps:
        best_cost = current_cost
        best_fn: XorHashFunction | None = None
        for c in range(current.m):
            candidates = family.column_candidates(current, c)
            if len(candidates) == 0:
                continue
            costs = column_replaced_costs(
                vectors, weights, current.columns, c, candidates
            )
            evaluations += len(candidates)
            # Try candidates in increasing cost order until one is a
            # feasible (full-rank, unvisited) strict improvement.
            for i in np.argsort(costs, kind="stable"):
                cost = int(costs[i])
                if cost >= best_cost:
                    break
                candidate = current.with_column(c, int(candidates[i]))
                if not candidate.is_full_rank:
                    continue
                key = candidate.canonical_key()
                if key in visited:
                    continue
                best_cost = cost
                best_fn = candidate
                break
        if best_fn is None:
            break  # local optimum (paper: stop when no neighbour improves)
        current = best_fn
        current_cost = best_cost
        visited.add(current.canonical_key())
        history.append(current_cost)
        steps += 1

    return SearchResult(
        function=current,
        estimated_misses=current_cost,
        start_misses=start_cost,
        steps=steps,
        evaluations=evaluations,
        seconds=time.perf_counter() - t0,
        history=history,
        family_name=family.name,
    )

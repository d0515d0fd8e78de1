"""Batched GF(2) screens for single-column matrix replacements.

The search neighbourhood of Sec. 3.2 replaces one column mask of the
current hash function by each of many candidate masks.  The scalar path
instantiates an :class:`~repro.gf2.hashfn.XorHashFunction` per candidate
and runs a fresh Gaussian elimination for its rank and a fresh subspace
canonicalization for its dedup key — O(candidates x m^2) Python work per
descent step.

This module screens the whole candidate array at once.  The key
observation: with the other ``m - 1`` columns fixed, their RREF basis
``B`` is computed *once*; a candidate mask ``h`` then

* keeps the function full rank iff ``h`` does not reduce to zero
  against ``B`` (and the fixed columns were independent), and
* has the canonical column-space basis ``RREF(B ∪ {h})``, obtainable
  from ``B`` by one reduction plus one back-substitution — no
  elimination from scratch.

Both facts vectorize over a numpy array of candidates: reduction by a
basis vector is a masked XOR, so the rank screen costs ``len(B)``
array passes and the canonical keys a handful more.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.gf2.spaces import rref_basis

__all__ = [
    "reduce_by_basis",
    "high_bit_index",
    "ColumnReplacementScreen",
]


def reduce_by_basis(vectors: np.ndarray, basis: Iterable[int]) -> np.ndarray:
    """Reduce each vector against an RREF basis (vectorized).

    Returns a ``uint64`` array: entry ``i`` is ``vectors[i]`` with every
    basis pivot eliminated.  A zero entry means the vector lies in the
    basis' span.
    """
    out = np.asarray(vectors).astype(np.uint64)  # a fresh copy
    one = np.uint64(1)
    for b in basis:
        hit = (out >> np.uint64(b.bit_length() - 1)) & one
        out ^= hit * np.uint64(b)
    return out


def high_bit_index(values: np.ndarray) -> np.ndarray:
    """Index of the highest set bit per element (``-1`` for zero)."""
    values = np.asarray(values).astype(np.uint64)
    out = np.zeros(values.shape, dtype=np.int64)
    tmp = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = tmp >= np.uint64(1 << shift)
        out[big] += shift
        tmp[big] >>= np.uint64(shift)
    out[values == 0] = -1
    return out


class ColumnReplacementScreen:
    """Rank and canonical-key screens for one column's candidate masks.

    Built once per (current function, column) pair; the fixed columns'
    RREF basis is the only state.  ``full_rank`` and
    ``canonical_bases`` then evaluate whole candidate arrays without
    instantiating any :class:`~repro.gf2.hashfn.XorHashFunction`.
    """

    __slots__ = ("n", "m", "basis", "_fixed_independent")

    def __init__(self, columns: Iterable[int], column_index: int, n: int):
        columns = tuple(int(c) for c in columns)
        if not 0 <= column_index < len(columns):
            raise IndexError(
                f"column {column_index} out of range for m={len(columns)}"
            )
        self.n = int(n)
        self.m = len(columns)
        fixed = tuple(
            col for c, col in enumerate(columns) if c != column_index
        )
        self.basis = rref_basis(fixed, self.n)
        self._fixed_independent = len(self.basis) == self.m - 1

    def full_rank(self, candidates: np.ndarray) -> np.ndarray:
        """Boolean mask: which candidate masks keep the function full rank.

        Equals ``fn.with_column(c, cand).is_full_rank`` per candidate
        (property-tested), at the cost of ``m - 1`` vectorized XOR
        passes instead of one Gaussian elimination per candidate.
        """
        if not self._fixed_independent:
            return np.zeros(len(np.asarray(candidates)), dtype=bool)
        return reduce_by_basis(candidates, self.basis) != 0

    def keeps_full_rank(self, mask: int) -> bool:
        """:meth:`full_rank` of one mask, in integer arithmetic — for
        callers that inspect only a few candidates of a column."""
        return self._fixed_independent and self._reduce(mask) != 0

    def _reduce(self, mask: int) -> int:
        reduced = int(mask)
        for b in self.basis:
            reduced = min(reduced, reduced ^ b)
        return reduced

    def canonical_bases(self, candidates: np.ndarray) -> np.ndarray:
        """Array-valued canonical keys: one RREF basis row per candidate.

        Row ``i`` holds the canonical basis of
        ``span(fixed columns ∪ {candidates[i]})`` sorted by decreasing
        pivot, zero-padded at the end — ``(len(candidates), m)`` when
        the fixed columns are independent.  The non-zero prefix of a
        row equals ``Subspace(columns', n).basis`` for the replaced
        column set (and hence identifies the function's null space,
        the dedup invariant of :meth:`XorHashFunction.canonical_key`).
        """
        reduced = reduce_by_basis(candidates, self.basis)
        fixed = np.array(self.basis, dtype=np.uint64)
        rows = np.tile(fixed, (len(reduced), 1))
        pivots = high_bit_index(reduced)
        shift = np.where(pivots >= 0, pivots, 0).astype(np.uint64)
        # Back-substitute the new vector into every fixed basis vector
        # holding its pivot; rank-deficient candidates (pivot -1) leave
        # the fixed basis untouched and contribute a zero entry.
        hit = ((rows >> shift[:, None]) & np.uint64(1) == 1) & (
            pivots >= 0
        )[:, None]
        rows ^= np.where(hit, reduced[:, None], np.uint64(0))
        full = np.concatenate([rows, reduced[:, None]], axis=1)
        # Distinct pivots make value order equal pivot order, so one
        # descending sort restores the canonical basis ordering.
        full = np.sort(full, axis=1)[:, ::-1]
        return np.ascontiguousarray(full)

    def canonical_key_of(self, mask: int) -> tuple:
        """Hashable key of one replacement, equal to the
        :meth:`XorHashFunction.canonical_key` of the replaced function.

        Pure integer arithmetic against the cached fixed basis — used
        by the hill climber for the few cost-ordered candidates it
        actually inspects, while :meth:`canonical_bases` serves whole
        arrays.
        """
        reduced = self._reduce(mask)
        if reduced == 0:
            return (self.n, self.basis)
        pivot = 1 << (reduced.bit_length() - 1)
        merged = tuple(
            b ^ reduced if b & pivot else b for b in self.basis
        )
        return (self.n, tuple(sorted(merged + (reduced,), reverse=True)))

    def key_from_row(self, basis_row: np.ndarray) -> tuple:
        """Hashable key from one :meth:`canonical_bases` row."""
        return (self.n, tuple(int(v) for v in basis_row if v))

"""Conflict-miss estimation from a profile — the paper's Eq. 4.

``misses(H) = sum over v in N(H) of misses(v)``

Evaluated from the *support side*: every profiled vector is tested for
null-space membership (``parity(v & h_c) == 0`` for all columns) — cost
``O(m x support)``, cheap when the profile support is smaller than the
``2^(n-m)`` members of the null space.  The null-space side (enumerate
``N(H)``, gather its histogram entries) is kept as a test-side oracle.

The support side is not width-limited: every elementwise parity goes
through :func:`repro.gf2.bitvec.parity_array`, and windows wider than
16 bits may switch to the bit-packed kernels of :mod:`repro.gf2.bitpack`
under its one packing rule.

:class:`MissEstimator` packages the support arrays once per profile and
adds the batched neighbourhood evaluation the hill climber relies on.
"""

from __future__ import annotations

import numpy as np

from repro.gf2.bitpack import (
    pack_bit_planes,
    packed_parity_rows,
    packing_pays,
    unpack_bits,
    weighted_popcount,
)
from repro.gf2.bitvec import parity_array
from repro.profiling.conflict_profile import ConflictProfile

__all__ = ["MissEstimator"]


def _support_dtype(n: int) -> np.dtype:
    return np.dtype(np.uint32 if n <= 32 else np.uint64)


def _members_of_nullspace(vectors: np.ndarray, columns) -> np.ndarray:
    """Boolean mask of ``vectors`` annihilated by every column mask."""
    alive = np.ones(len(vectors), dtype=bool)
    for col in columns:
        np.logical_and(
            alive, parity_array(vectors & vectors.dtype.type(col)) == 0, out=alive
        )
    return alive


class MissEstimator:
    """Fast repeated Eq. 4 evaluation against one profile.

    The hill climber asks two questions many times per step:

    * the cost of a full column set (:meth:`cost`) — one parity pass
      per column over the support;
    * the costs of a whole search neighbourhood — every column times
      every candidate mask, for a whole front of current functions at
      once (:meth:`costs_for_moves_front`).  For each replaced column
      the support is reduced to the vectors annihilated by the *other*
      columns, and each candidate touches only that residue via one
      shared 2-D parity gather, ``O(candidates x residue)`` overall.

    Works for any window width.  Parities come from
    :func:`repro.gf2.bitvec.parity_array`; where
    :func:`repro.gf2.bitpack.packing_pays` says so (windows wider than
    16 bits, batches large enough to amortize the transpose), from the
    bit-packed plane kernels instead (64 support vectors per word).
    """

    #: Bound on ``candidates x residue-vectors`` elements materialized at
    #: once by the batched evaluation (the int64 product stays ~32 MB).
    CHUNK_ELEMENTS = 1 << 22

    def __init__(self, profile: ConflictProfile):
        self.profile = profile
        self.n = profile.n
        vectors, weights = profile.support()
        self._vectors = vectors.astype(_support_dtype(profile.n))
        self._weights = weights.astype(np.int64)
        # Bit-plane packing of the full support, built on first use by
        # the packed (n > 16) paths; narrow windows never pay for it.
        self._planes: np.ndarray | None = None
        self.evaluations = 0
        # Parity rows over the support keyed by column mask (~64 MB cap;
        # a search only ever touches a few hundred distinct masks).
        self._parity_rows: dict[int, np.ndarray] = {}
        self._parity_row_limit = max(64, (64 << 20) // max(len(vectors), 1))

    @property
    def support_size(self) -> int:
        return len(self._vectors)

    def cost(self, columns: tuple[int, ...]) -> int:
        """Estimated conflict misses for a function with these columns."""
        alive = self._alive(columns)
        self.evaluations += 1
        return int(self._weights[alive].sum())

    def costs_for_moves_front(
        self,
        column_sets,
        candidates: np.ndarray,
        owners: np.ndarray,
        move_columns: np.ndarray,
    ) -> np.ndarray:
        """Eq. 4 costs of single-column moves over a lockstep front.

        ``column_sets[k]`` is the current column tuple of front member
        ``k`` (all members share ``m``); candidate ``i`` replaces
        column ``move_columns[i]`` of member ``owners[i]``.  One parity
        matrix over the support (``len(column_sets) x m`` passes) and
        one shared chunked 2-D candidate gather serve every member —
        this is what lets ``hill_climb_front`` advance all restarts
        simultaneously.  Returns an ``int64`` array of costs aligned
        with ``candidates``.
        """
        column_sets = [tuple(cols) for cols in column_sets]
        if not column_sets:
            raise ValueError("costs_for_moves_front needs at least one column set")
        m = len(column_sets[0])
        if any(len(cols) != m for cols in column_sets):
            raise ValueError("all front members must share the same m")
        vectors = self._vectors
        candidates = np.asarray(candidates, dtype=vectors.dtype)
        owners = np.asarray(owners, dtype=np.intp)
        move_columns = np.asarray(move_columns, dtype=np.intp)
        if not (len(candidates) == len(owners) == len(move_columns)):
            raise ValueError("candidates, owners and move_columns must align")
        out = np.zeros(len(candidates), dtype=np.int64)
        self.evaluations += len(candidates)
        if len(candidates) == 0 or len(vectors) == 0:
            return out
        # Parity of every support vector under every current column of
        # every member.  Rows are memoized per column *mask*: a descent
        # step changes one column and front members share most masks,
        # so nearly every row is a dict hit instead of a parity pass.
        parities = np.empty((len(column_sets), m, len(vectors)), dtype=np.uint8)
        for k, cols in enumerate(column_sets):
            for c, col in enumerate(cols):
                parities[k, c] = self._parity_row(col)
        # m <= 64 columns, so the odd-column count of a vector fits a byte.
        odd_counts = parities.sum(axis=1, dtype=np.uint8)
        # One residue gather per (member, column) group: vectors
        # annihilated by every *other* column of that member, read off
        # the shared parity matrix.  A vector is in column c's residue
        # iff its odd-column count equals its parity under c, so only
        # vectors odd under at most one column can be in any; each
        # member's groups share that one pre-filtered slice.
        near: dict[int, tuple] = {}
        row_ids = owners * m + move_columns
        for row_id in np.unique(row_ids):
            k, c = divmod(int(row_id), m)
            if k not in near:
                idx = np.flatnonzero(odd_counts[k] <= 1)
                near[k] = (
                    odd_counts[k][idx], parities[k][:, idx],
                    vectors[idx], self._weights[idx],
                )
            near_odd, near_parities, near_vectors, near_weights = near[k]
            alive = near_odd == near_parities[c]
            sub_vectors = near_vectors[alive]
            if len(sub_vectors) == 0:
                continue  # no surviving vectors: every cost stays 0
            sub_weights = near_weights[alive]
            total = int(sub_weights.sum())
            mine = np.nonzero(row_ids == row_id)[0]
            group = candidates[mine]
            out[mine] = total - self._odd_weights(group, sub_vectors, sub_weights)
        return out

    def annihilated_mask(self, columns) -> np.ndarray:
        """Boolean mask over the support: vectors with even parity under
        *every* given column mask.

        The support-side membership test of Eq. 4 exposed for partial
        column assignments — exact searches
        (:mod:`repro.search.branch_bound`) intersect these residues to
        bound every completion of a prefix.  Rows come from the memoized
        per-mask parity cache, so repeated prefixes of the same columns
        cost one dictionary hit per mask.
        """
        alive = np.ones(len(self._vectors), dtype=bool)
        for col in columns:
            np.logical_and(alive, self._parity_row(int(col)) == 0, out=alive)
        return alive

    def weight_within(self, alive: np.ndarray) -> int:
        """Total profiled conflict weight of one support subset."""
        return int(self._weights[alive].sum())

    def even_weights_within(
        self, candidates: np.ndarray, alive: np.ndarray
    ) -> np.ndarray:
        """Surviving (even-parity) weight within ``alive`` per candidate.

        ``out[i]`` is the weight of support vectors in ``alive`` with
        even parity under ``candidates[i]`` — the batched one-more-column
        evaluation behind branch-and-bound child bounds, routed through
        the same chunked/bit-packed kernel as the neighbourhood paths.
        Counts one evaluation per candidate.
        """
        candidates = np.asarray(candidates, dtype=self._vectors.dtype)
        self.evaluations += len(candidates)
        out = np.zeros(len(candidates), dtype=np.int64)
        if len(candidates) == 0:
            return out
        vectors = self._vectors[alive]
        if len(vectors) == 0:
            return out
        weights = self._weights[alive]
        total = int(weights.sum())
        out[:] = total - self._odd_weights(candidates, vectors, weights)
        return out

    def complete_group_minima(
        self,
        candidates: np.ndarray,
        alive: np.ndarray,
        shift: int,
        group_size: int,
    ) -> np.ndarray:
        """Per candidate: sum of min weights over *complete* high-bit groups.

        Restricts ``alive`` to vectors with even parity under the
        candidate mask (mask ``0`` keeps the residue unrestricted),
        groups the survivors by their bits above ``shift``, and sums the
        minimum weight of every group holding exactly ``group_size``
        members.  This is the permutation-family suffix bound of
        :mod:`repro.search.branch_bound`: when each group member is one
        distinct completion of the free index bits, a complete group is
        hit by *every* remaining assignment, so its cheapest member is
        an admissible contribution.  Counts one evaluation per
        candidate.
        """
        candidates = np.asarray(candidates, dtype=self._vectors.dtype)
        self.evaluations += len(candidates)
        out = np.zeros(len(candidates), dtype=np.int64)
        if len(candidates) == 0 or not alive.any():
            return out
        shift = np.uint64(shift)
        groups_all = (self._vectors >> shift).astype(np.int64)
        n_groups = int(groups_all.max()) + 1
        # One min-per-group pass over the *given* residue: a restricted
        # residue is a subset, so its group minima only rise — using
        # the unrestricted minima for every candidate keeps the bound
        # admissible while the per-candidate work drops to a bincount.
        base_groups = groups_all[alive]
        minima = np.full(n_groups, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(minima, base_groups, self._weights[alive])
        for i, mask in enumerate(candidates):
            if int(mask):
                child = alive & (self._parity_row(int(mask)) == 0)
                groups = groups_all[child]
            else:
                groups = base_groups
            if len(groups) == 0:
                continue
            counts = np.bincount(groups, minlength=n_groups)
            out[i] = int(minima[counts == group_size].sum())
        return out

    def _odd_weights(
        self, candidates: np.ndarray, vectors: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Weight of odd-parity vectors under each candidate mask.

        The batch kernel behind the neighbourhood and bound
        evaluations: one
        chunked 2-D :func:`parity_array` pass, or — where the packing
        rule says the transpose pays — one :func:`pack_bit_planes` of
        the residue, then per candidate plane XORs plus one weighted
        popcount.  Both routes are exact.
        """
        out = np.empty(len(candidates), dtype=np.int64)
        if len(candidates) == 0:
            return out
        rows = max(1, self.CHUNK_ELEMENTS // max(len(vectors), 1))
        if packing_pays(self.n, len(candidates) * len(vectors)):
            planes = pack_bit_planes(vectors, self.n)
            for lo in range(0, len(candidates), rows):
                packed = packed_parity_rows(planes, candidates[lo : lo + rows])
                out[lo : lo + rows] = weighted_popcount(
                    packed, weights, len(vectors)
                )
            return out
        for lo in range(0, len(candidates), rows):
            chunk = candidates[lo : lo + rows]
            odd = parity_array(chunk[:, None] & vectors[None, :])
            out[lo : lo + rows] = odd.astype(np.int64) @ weights
        return out

    def _parity_row(self, column: int) -> np.ndarray:
        """Memoized parity of the whole support under one column mask.

        Packed windows read the row off the bit-plane packing of the
        support — ``popcount(column)`` word-wide XOR passes plus one
        unpack — instead of a full-width masked parity pass.
        """
        row = self._parity_rows.get(column)
        if row is None:
            if len(self._parity_rows) >= self._parity_row_limit:
                self._parity_rows.clear()
            if packing_pays(self.n) and len(self._vectors):
                packed = packed_parity_rows(
                    self._support_planes(),
                    np.asarray([column], dtype=np.uint64),
                )
                row = unpack_bits(packed, len(self._vectors))[0]
            else:
                row = parity_array(
                    self._vectors & self._vectors.dtype.type(column)
                )
            self._parity_rows[column] = row
        return row

    def _support_planes(self) -> np.ndarray:
        """Bit-plane packing of the full support, built once on demand."""
        if self._planes is None:
            self._planes = pack_bit_planes(self._vectors, self.n)
        return self._planes

    def _alive(self, columns: tuple[int, ...]) -> np.ndarray:
        """Support vectors annihilated by every given column."""
        return _members_of_nullspace(self._vectors, columns)

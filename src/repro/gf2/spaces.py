"""Subspaces of GF(2)^n with canonical bases.

The paper's design-space exploration runs over *null spaces* of hash
matrices rather than over the matrices themselves (Sec. 2): distinct
matrices with equal null spaces produce identical conflict behaviour, so
deduplicating by null space shrinks the search space from ~3.4e38
matrices to ~6.3e19 subspaces for ``n=16, m=8``.

A :class:`Subspace` is stored by its reduced row-echelon basis, which is
unique per subspace, making equality and hashing exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from itertools import combinations

import numpy as np

from repro.gf2.bitvec import mask
from repro.gf2.matrix import GF2Matrix

__all__ = ["Subspace", "all_subspace_bases", "rref_basis"]


def rref_basis(vectors: Iterable[int], n: int) -> tuple[int, ...]:
    """Canonical (RREF) basis of ``span(vectors)`` in GF(2)^n.

    The basis a :class:`Subspace` stores, sorted by decreasing pivot
    position.
    """
    limit = 1 << n
    rows: dict[int, int] = {}  # pivot position -> fully reduced row
    for vec in vectors:
        if vec < 0 or vec >= limit:
            raise ValueError(f"vector {vec:#x} does not fit in {n} bits")
        for pivot, row in rows.items():
            if vec >> pivot & 1:
                vec ^= row
        if vec:
            # Back-substitute so each pivot appears in exactly one row.
            pivot = vec.bit_length() - 1
            for other, row in rows.items():
                if row >> pivot & 1:
                    rows[other] = row ^ vec
            rows[pivot] = vec
    return tuple(rows[pivot] for pivot in sorted(rows, reverse=True))


def all_subspace_bases(n: int, dim: int):
    """Enumerate every ``dim``-dimensional subspace of GF(2)^n once.

    Yields canonical RREF bases as tuples of ints (decreasing pivots).
    The construction mirrors the RREF normal form: choose the pivot
    positions, then fill each basis vector's non-pivot positions below
    its own pivot freely.  The total count is the Gaussian binomial
    ``[n choose dim]_2`` (checked by tests), which explodes quickly —
    practical up to roughly n = 9; used by the optimal-XOR search that
    the paper lists as future work.
    """
    if not 0 <= dim <= n:
        raise ValueError(f"dimension {dim} out of range for ambient {n}")
    if dim == 0:
        yield ()
        return
    for pivots in combinations(reversed(range(n)), dim):
        # pivots are decreasing; vector i owns pivots[i].
        free_positions = [
            [j for j in range(p) if j not in pivots] for p in pivots
        ]
        free_counts = [len(f) for f in free_positions]

        def fill(i: int, prefix: tuple[int, ...]):
            if i == dim:
                yield prefix
                return
            base = 1 << pivots[i]
            for bits in range(1 << free_counts[i]):
                vec = base
                for b, pos in enumerate(free_positions[i]):
                    if (bits >> b) & 1:
                        vec |= 1 << pos
                yield from fill(i + 1, prefix + (vec,))

        yield from fill(0, ())


class Subspace:
    """A linear subspace of GF(2)^n, canonicalized by its RREF basis."""

    __slots__ = ("_basis", "_n")

    def __init__(self, vectors: Iterable[int], n: int):
        self._n = int(n)
        self._basis = rref_basis(vectors, self._n)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        """The trivial subspace ``{0}``."""
        return cls([], n)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        """The whole space GF(2)^n."""
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def span_of_units(cls, indices: Iterable[int], n: int) -> "Subspace":
        """``span(e_i : i in indices)`` — used for Eq. (5)'s low-order span."""
        return cls([1 << i for i in indices], n)

    @classmethod
    def random(cls, n: int, dim: int, rng) -> "Subspace":
        """A uniformly random ``dim``-dimensional subspace of GF(2)^n."""
        if not 0 <= dim <= n:
            raise ValueError(f"dimension {dim} out of range for ambient {n}")
        vectors: list[int] = []
        space = cls.zero(n)
        limit = 1 << n
        while space.dim < dim:
            if hasattr(rng, "integers"):
                candidate = int(rng.integers(0, limit))
            else:
                candidate = rng.randrange(limit)
            if not space.contains(candidate):
                vectors.append(candidate)
                space = cls(vectors, n)
        return space

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Ambient dimension."""
        return self._n

    @property
    def dim(self) -> int:
        return len(self._basis)

    @property
    def basis(self) -> tuple[int, ...]:
        """Canonical RREF basis, sorted by decreasing pivot position."""
        return self._basis

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot bit positions of the canonical basis (decreasing)."""
        return tuple(v.bit_length() - 1 for v in self._basis)

    def size(self) -> int:
        """Number of vectors in the subspace (``2 ** dim``)."""
        return 1 << self.dim

    # ------------------------------------------------------------------
    # Membership and enumeration
    # ------------------------------------------------------------------

    def contains(self, vec: int) -> bool:
        if vec < 0 or vec >= (1 << self._n):
            raise ValueError(f"vector {vec:#x} does not fit in {self._n} bits")
        for b in self._basis:
            vec = min(vec, vec ^ b)
        return vec == 0

    def __contains__(self, vec: int) -> bool:
        return self.contains(vec)

    def __iter__(self) -> Iterator[int]:
        """Enumerate all ``2**dim`` member vectors (Gray-code order)."""
        value = 0
        yield 0
        for i in range(1, self.size()):
            # Gray code: flip the basis vector indexed by the lowest set
            # bit of i, visiting every combination exactly once.
            value ^= self._basis[(i & -i).bit_length() - 1]
            yield value

    def member_array(self) -> np.ndarray:
        """All ``2**dim`` member vectors as one ``uint64`` array.

        Vectorized doubling over the basis — each basis vector XORs the
        members enumerated so far — so no per-member Python iteration;
        the order differs from :meth:`__iter__`.  Requires ``n <= 64``.
        """
        if self._n > 64:
            raise ValueError(
                f"member_array packs vectors into uint64; ambient {self._n} > 64"
            )
        members = np.zeros(1, dtype=np.uint64)
        for b in self._basis:
            members = np.concatenate([members, members ^ np.uint64(b)])
        return members

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------

    def sum_with(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both (``V + W``)."""
        self._check_ambient(other)
        return Subspace(self._basis + other._basis, self._n)

    def intersection(self, other: "Subspace") -> "Subspace":
        """``V ∩ W`` via the Zassenhaus algorithm."""
        self._check_ambient(other)
        n = self._n
        # Rows [v | v] for v in V's basis and [w | 0] for w in W's basis;
        # after elimination, rows with zero left half hold intersection
        # vectors in their right half.
        rows = [(v << n) | v for v in self._basis]
        rows += [w << n for w in other._basis]
        matrix, __ = GF2Matrix(rows, 2 * n).rref()
        low = mask(n)
        inter = [row & low for row in matrix.rows if row and (row >> n) == 0]
        return Subspace(inter, n)

    def orthogonal_complement(self) -> "Subspace":
        """``V^⊥ = { y : parity(v & y) = 0 for all v in V }``.

        For a hash function ``H``, the column space of ``H`` is exactly
        ``N(H)^⊥`` — this is how a matrix is recovered from a null space.
        """
        basis = GF2Matrix(self._basis, self._n).kernel()
        return Subspace(basis, self._n)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(v) for v in other._basis)

    def intersects_trivially(self, other: "Subspace") -> bool:
        """True when ``V ∩ W = {0}``.

        Checked via dimensions: ``dim(V+W) = dim V + dim W``.
        """
        return self.sum_with(other).dim == self.dim + other.dim

    def is_neighbor_of(self, other: "Subspace") -> bool:
        """Paper Sec. 3.2 neighbourhood: equal dimensions differing in
        exactly one — ``dim(V ∩ W) = dim V - 1``."""
        self._check_ambient(other)
        if self.dim != other.dim:
            return False
        return self.intersection(other).dim == self.dim - 1

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _check_ambient(self, other: "Subspace") -> None:
        if self._n != other._n:
            raise ValueError(
                f"ambient dimensions differ: {self._n} vs {other._n}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self._n == other._n and self._basis == other._basis

    def __hash__(self) -> int:
        return hash((self._n, self._basis))

    def __repr__(self) -> str:
        return (
            f"Subspace(n={self._n}, dim={self.dim}, "
            f"basis={[bin(v) for v in self._basis]})"
        )

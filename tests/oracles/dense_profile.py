"""The dense conflict profile: the oracle of :class:`ConflictProfile`.

Until profiles kept only their support, a
:class:`~repro.profiling.conflict_profile.ConflictProfile` held the
whole ``2^n`` histogram as one frozen ``int64`` array and derived
everything else from it.  :class:`DenseConflictProfile` is that class,
unchanged but for its name: the support-only profile must equal it in
counts, digest, archive bytes, merges, support order, lookups, ties and
totals (``tests/profiling/test_profile_support.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np



@dataclass(frozen=True)
class DenseConflictProfile:
    """Histogram of conflict vectors over the hashed address window.

    ``counts[v]`` is the number of (access, intervening block) pairs
    whose XOR, truncated to ``n`` bits, equals ``v`` — the paper's
    ``misses(v)``.
    """

    n: int
    counts: np.ndarray
    compulsory: int = 0
    capacity: int = 0
    accesses: int = 0
    #: Pairs of distinct blocks equal in all hashed bits.  They conflict
    #: under *every* n-bit hash function (0 is in every null space), so
    #: they are an unavoidable constant excluded from ``counts``.
    beyond_window: int = 0

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.shape != (1 << self.n,):
            raise ValueError(
                f"counts must have shape ({1 << self.n},), got {counts.shape}"
            )
        if counts[0] != 0:
            raise ValueError("misses(0) must be zero: a block cannot conflict with itself")
        # Frozen for real: the memoized digest keys cache artifacts.
        # Copy when the conversion was a no-op on a writable caller
        # array, so the freeze never leaks out as a side effect.
        if counts is self.counts and counts.flags.writeable:
            counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def digest(self) -> str:
        """Stable content digest over every field of the profile.

        Used by the artifact cache to key search outcomes against the
        exact profile they were derived from.  Memoized per instance
        (the counts array is frozen).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            h = hashlib.sha256(b"conflict-profile-v1")
            h.update(
                f"|n={self.n}|compulsory={self.compulsory}|capacity={self.capacity}"
                f"|accesses={self.accesses}|beyond={self.beyond_window}|".encode()
            )
            h.update(self.counts.tobytes())
            cached = h.hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    @property
    def total_weight(self) -> int:
        """Sum of all vector counts."""
        return int(self.counts.sum())

    @property
    def num_distinct_vectors(self) -> int:
        return int(np.count_nonzero(self.counts))

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(vectors, counts) for the non-zero entries, as numpy arrays."""
        vectors = np.nonzero(self.counts)[0].astype(np.uint32)
        return vectors, self.counts[vectors]

    def weight_of(self, vector: int) -> int:
        """``misses(v)`` for a single vector."""
        if not 0 <= vector < (1 << self.n):
            raise ValueError(f"vector {vector:#x} does not fit in {self.n} bits")
        return int(self.counts[vector])

    @classmethod
    def merge(cls, profiles) -> "DenseConflictProfile":
        """One-pass pointwise sum of any number of profiles.

        Accepts any iterable (consumed lazily, so a generator of
        per-shard or per-window profiles never holds more than one
        addend plus the accumulator — memory stays O(2^n), not
        O(profiles x 2^n)) and accumulates every histogram into a
        single buffer.  Equivalent to chaining :meth:`merged_with`
        (property-tested) without the intermediate profile object and
        ``2^n`` temporary per addend.
        """
        iterator = iter(profiles)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("merge needs at least one profile") from None
        counts = np.array(first.counts, dtype=np.int64)
        compulsory = first.compulsory
        capacity = first.capacity
        accesses = first.accesses
        beyond_window = first.beyond_window
        for profile in iterator:
            if profile.n != first.n:
                raise ValueError(f"window sizes differ: {first.n} vs {profile.n}")
            np.add(counts, profile.counts, out=counts)
            compulsory += profile.compulsory
            capacity += profile.capacity
            accesses += profile.accesses
            beyond_window += profile.beyond_window
        # Pre-freeze so the constructor adopts the accumulator instead
        # of defensively copying a writable caller array.
        counts.setflags(write=False)
        return cls(
            first.n,
            counts,
            compulsory=compulsory,
            capacity=capacity,
            accesses=accesses,
            beyond_window=beyond_window,
        )

    def merged_with(self, other: "DenseConflictProfile") -> "DenseConflictProfile":
        """Pointwise sum of two profiles over the same window."""
        return DenseConflictProfile.merge((self, other))

    def top_vectors(self, k: int) -> list[tuple[int, int]]:
        """The ``k`` heaviest conflict vectors as (vector, count) pairs,
        ties broken by ascending vector."""
        vectors, counts = self.support()
        # support() lists vectors ascending, so a stable sort on the
        # negated counts keeps tied vectors in that order.
        order = np.argsort(-counts, kind="stable")[:k]
        return [(int(vectors[i]), int(counts[i])) for i in order]

    def save(self, target: str | Path | BinaryIO) -> None:
        """Write a compressed ``.npz`` archive to a path or binary file."""
        np.savez_compressed(
            target,
            n=self.n,
            counts=self.counts,
            meta=np.array(
                [self.compulsory, self.capacity, self.accesses, self.beyond_window],
                dtype=np.int64,
            ),
        )

    @classmethod
    def load(cls, source: str | Path | BinaryIO) -> "DenseConflictProfile":
        """Read a :meth:`save` archive from a path or binary file."""
        with np.load(source) as data:
            meta = data["meta"]
            return cls(
                int(data["n"]),
                data["counts"],
                compulsory=int(meta[0]),
                capacity=int(meta[1]),
                accesses=int(meta[2]),
                # Archives written before beyond_window was persisted
                # have a three-entry meta vector.
                beyond_window=int(meta[3]) if len(meta) > 3 else 0,
            )

    def __repr__(self) -> str:
        return (
            f"DenseConflictProfile(n={self.n}, distinct={self.num_distinct_vectors}, "
            f"weight={self.total_weight}, compulsory={self.compulsory}, "
            f"capacity={self.capacity}, accesses={self.accesses})"
        )

"""Three-Cs miss classification.

The standard decomposition the paper's filtering logic relies on:

* *compulsory* — first touch of a block; no cache avoids it;
* *capacity*   — misses a fully-associative LRU cache of the same size
  would also take (beyond compulsory);
* *conflict*   — the remainder: misses caused purely by the indexing.

Conflict misses are what XOR-indexing attacks; the classifier is used
in reports and to validate that the profiler's capacity filter matches
the FA-LRU definition.  Note ``conflict`` can be negative in corner
cases: LRU replacement is not optimal, so a direct-mapped cache can
outperform FA-LRU (the paper's Sec. 6.1 observation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.engine import simulate, simulate_capacity
from repro.cache.geometry import CacheGeometry
from repro.cache.indexing import IndexingPolicy
from repro.cache.stats import CacheStats

__all__ = ["MissBreakdown", "classify_misses"]


@dataclass(frozen=True)
class MissBreakdown:
    """Per-class miss counts for one (trace, cache, indexing) triple."""

    accesses: int
    total: int
    compulsory: int
    capacity: int
    conflict: int

    def __post_init__(self):
        assert self.compulsory + self.capacity + self.conflict == self.total

    @classmethod
    def from_stats(cls, actual: CacheStats, fully: CacheStats) -> "MissBreakdown":
        """Split ``actual``'s misses, given the same trace's stats on a
        fully-associative LRU cache of the same capacity (``fully``)."""
        capacity = fully.misses - fully.compulsory
        return cls(
            accesses=actual.accesses,
            total=actual.misses,
            compulsory=actual.compulsory,
            capacity=capacity,
            conflict=actual.misses - actual.compulsory - capacity,
        )

    @property
    def conflict_fraction(self) -> float:
        """Share of all misses an ideal indexing could attack."""
        return self.conflict / self.total if self.total else 0.0

    def format(self) -> str:
        return (
            f"{self.total} misses / {self.accesses} accesses: "
            f"{self.compulsory} compulsory, {self.capacity} capacity, "
            f"{self.conflict} conflict ({100 * self.conflict_fraction:.1f}%)"
        )


def classify_misses(
    blocks: np.ndarray,
    geometry: CacheGeometry,
    indexing: IndexingPolicy | None = None,
) -> MissBreakdown:
    """Classify the misses of a direct-mapped cache on a block trace."""
    if not geometry.is_direct_mapped:
        raise ValueError("three-Cs classification here targets direct-mapped caches")
    return MissBreakdown.from_stats(
        simulate(blocks, geometry, indexing),
        simulate_capacity(blocks, geometry.num_blocks),
    )

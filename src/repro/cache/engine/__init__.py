"""Unified array-based cache simulation engine.

The one uncached way to simulate a cache; one entry point per shape:

* :func:`simulate` — geometry-dispatched replay (direct-mapped cache
  via one row of the sort kernel :func:`misses_for_index_streams`,
  set-associative / fully associative via the grouped per-set LRU
  scan);
* :func:`simulate_capacity` — fully-associative LRU with an arbitrary
  (non-power-of-two) frame count;
* :func:`simulate_banks` — skewed cache with per-bank hash functions;
* :func:`evaluate_many` — exact verification of a whole candidate
  front of hash functions on one trace, one :func:`simulate` each.

:class:`repro.pipeline.PipelineContext` fronts the same calls with its
content-addressed artifact cache.  The property tests cross-check this
engine against per-access scalar loops, one per cache organization,
kept on the test side as oracles.
"""

from repro.cache.engine.core import (
    compulsory_count,
    lru_miss_vector,
    misses_for_index_streams,
    skewed_miss_vector,
)
from repro.cache.engine.dispatch import (
    evaluate_many,
    simulate,
    simulate_banks,
    simulate_capacity,
    stats_from_misses,
)

__all__ = [
    "simulate",
    "simulate_banks",
    "simulate_capacity",
    "stats_from_misses",
    "evaluate_many",
    "misses_for_index_streams",
    "lru_miss_vector",
    "skewed_miss_vector",
    "compulsory_count",
]

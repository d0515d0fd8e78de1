"""Array kernels shared by every cache organization.

The kernels operate on two parallel streams derived from a block trace:

* ``set_ids`` — per-access set identity.  Any integer array works; the
  values need not be compact (a bit-selection mask applied to the block
  address is a valid set identity, as is a hashed index).
* ``keys``    — per-access block identity *within* a set.  Because every
  indexing policy in the package keeps (set index, tag) jointly
  bijective, the full block address is always a valid key, which lets
  callers skip computing tags entirely.

:func:`misses_for_index_streams` counts direct-mapped misses, one row
of set ids per index function; the LRU and skewed kernels return a
per-access boolean miss vector in program order; and
:func:`program_order_links` is the one same-key occurrence pass, shared
with the Fig. 1 profiler.  The replacement behaviour is bit-identical
to per-access scalar simulators kept on the test side as oracles.

The sequential-replacement inner kernels (the LRU stack-depth test and
the skewed replay) dispatch through :mod:`repro.backend` — the common
work (set grouping, occurrence links, victim draws) happens here once,
in NumPy, regardless of the backend.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.backend import Backend, active_backend
from repro.backend.sorting import stable_argsort

__all__ = [
    "misses_for_index_streams",
    "lru_miss_vector",
    "program_order_links",
    "skewed_miss_vector",
    "compulsory_count",
    "occurrence_links",
]


#: Soft cap on intermediate array size (elements) for chunked passes.
CHUNK_ELEMENTS = 1 << 22


def misses_for_index_streams(
    index_streams: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Direct-mapped miss counts for each row of ``index_streams``.

    ``index_streams`` has shape ``(K, N)``: one set-identity stream per
    candidate.  ``keys`` must identify *blocks* (block addresses or any
    bijective relabeling of them) — equal keys then imply equal set ids
    in every stream, so after the stable per-row sort an access hits iff
    its key equals the preceding key, and the set comparison is
    redundant.  The argsort and the consecutive-change count run on a
    whole chunk of candidates at once (``axis=1`` reductions over
    contiguous rows), so the per-candidate cost is one radix sort with
    no Python-level per-access work.
    """
    index_streams = np.asarray(index_streams)
    if index_streams.ndim != 2:
        raise ValueError(
            f"index_streams must be 2-D (K, N), got shape {index_streams.shape}"
        )
    num_candidates, count = index_streams.shape
    misses = np.zeros(num_candidates, dtype=np.int64)
    if count == 0 or num_candidates == 0:
        return misses
    keys = np.asarray(keys)
    # NumPy's stable sort is radix only for <= 16-bit integers; wider
    # rows fall back to a comparison sort (~9x slower).  Index streams
    # carry m-bit set ids, so they almost always narrow.
    if (
        index_streams.dtype.kind in "ui"
        and index_streams.dtype.itemsize > 2
        and int(index_streams.max()) < 1 << 16
        and (index_streams.dtype.kind == "u" or int(index_streams.min()) >= 0)
    ):
        index_streams = index_streams.astype(np.uint16)
    rows_per_chunk = max(1, CHUNK_ELEMENTS // count)
    for lo in range(0, num_candidates, rows_per_chunk):
        ids = index_streams[lo : lo + rows_per_chunk]
        order = np.argsort(ids, axis=1, kind="stable")
        sorted_keys = keys[order]
        change = sorted_keys[:, 1:] != sorted_keys[:, :-1]
        misses[lo : lo + rows_per_chunk] = 1 + np.count_nonzero(change, axis=1)
    return misses


def occurrence_links(
    grouped_set_ids: np.ndarray, grouped_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Previous/next same-(set, key) occurrence links, grouped coords.

    Both inputs must already be in grouped coordinates (sets
    contiguous, program order inside each set — a stable sort by set
    identity).  ``prev[t] < 0`` marks a set-local first
    touch.  A slot whose key never recurs gets ``nxt[t]`` = the *end of
    its set's span* rather than a global sentinel: past its set's last
    access the slot can never participate in a reuse interval again, so
    this tighter horizon lets chunked kernels expire whole sets from
    their carried state (a global sentinel would keep one slot per
    distinct (set, key) pair alive forever).

    One stable argsort of the keys clusters equal keys; inside each
    cluster, grouped positions ascend, which keeps equal (key, set)
    pairs contiguous and in program order — so consecutive sort
    positions with equal key *and* equal set are exactly the
    (previous, current) occurrence pairs.  The set comparison matters:
    the same key may legally appear under several set identities (the
    key only needs to be unique within a set).
    """
    count = len(grouped_keys)
    # 32-bit links halve the traffic of every downstream pass; the
    # sentinel needs count + 1 to stay representable.
    dtype = np.int32 if count < (1 << 31) - 2 else np.int64
    prev = np.full(count, -1, dtype=dtype)
    if count == 0:
        return prev, np.full(count, count, dtype=dtype)
    single_set = bool(grouped_set_ids[0] == grouped_set_ids[-1])
    if single_set:
        nxt = np.full(count, count, dtype=dtype)
    else:
        boundaries = (
            np.flatnonzero(grouped_set_ids[1:] != grouped_set_ids[:-1]) + 1
        )
        span_ends = np.append(boundaries, count).astype(dtype, copy=False)
        widths = np.diff(np.concatenate([np.zeros(1, dtype=dtype), span_ends]))
        nxt = np.repeat(span_ends, widths)
    keys_cmp = _narrow(grouped_keys)
    korder = stable_argsort(keys_cmp)
    keys_in_order = keys_cmp[korder]
    repeat = np.empty(count, dtype=bool)
    repeat[0] = False
    np.equal(keys_in_order[1:], keys_in_order[:-1], out=repeat[1:])
    if not single_set:
        sets_in_order = _narrow(grouped_set_ids)[korder]
        repeat[1:] &= sets_in_order[1:] == sets_in_order[:-1]
    # Scatter the full consecutive-sort-position pairing, then repair
    # the few group boundaries: repeats vastly outnumber first/last
    # occurrences, so two dense scatters beat materializing the repeat
    # index set.  ``firsts`` always starts with sort position 0.
    firsts = np.flatnonzero(~repeat)
    lasts_idx = korder[np.append(firsts[1:], count) - 1]
    span_sentinels = nxt[lasts_idx]
    nxt[korder[:-1]] = korder[1:]
    nxt[lasts_idx] = span_sentinels
    prev[korder[1:]] = korder[:-1]
    prev[korder[firsts]] = -1
    return prev, nxt


def _narrow(values: np.ndarray) -> np.ndarray:
    """Narrow a non-negative integer array to the smallest sort dtype.

    Any injective relabeling preserves the equal-runs-and-program-order
    structure :func:`occurrence_links` needs from the key sort, and a
    16-bit dtype both halves gather traffic and lets NumPy's native
    radix argsort take over.  Arrays that do not fit come back as-is.
    """
    if values.dtype.kind not in "ui" or values.dtype.itemsize <= 2 or not len(values):
        return values
    top = int(values.max())
    if values.dtype.kind == "i" and int(values.min()) < 0:
        return values
    if top < 1 << 16:
        return values.astype(np.uint16)
    if top < 1 << 32 and values.dtype.itemsize > 4:
        return values.astype(np.uint32)
    return values


def lru_miss_vector(
    set_ids: np.ndarray | None,
    keys: np.ndarray,
    ways: int,
    backend: Backend | None = None,
) -> np.ndarray:
    """Miss vector for an LRU set-associative cache.

    LRU is a stack algorithm, so an access hits iff it is a reaccess
    whose LRU stack depth within its set — the number of distinct other
    keys touched in the set since its previous occurrence — is below
    the associativity.  The depth test runs on the active compute
    backend over occurrence links built here in grouped coordinates;
    everything else (grouping, links, scatter back to program order) is
    one-pass NumPy regardless of backend.  One way is a direct-mapped
    cache's miss vector.

    ``set_ids=None`` declares a single-set (fully-associative) cache:
    program order already is grouped order, so the grouping sort and
    the permutation gathers/scatter drop out entirely.
    """
    if ways < 1:
        raise ValueError(f"ways must be >= 1, got {ways}")
    count = len(keys)
    if set_ids is None:
        if count == 0:
            return np.zeros(0, dtype=bool)
        sole = np.zeros(1, dtype=np.uint8)
        prev, nxt = occurrence_links(np.broadcast_to(sole, (count,)), keys)
        if backend is None:
            backend = active_backend()
        return (prev < 0) | backend.lru_depth_at_least(prev, nxt, ways)
    if count == 0:
        return np.zeros(0, dtype=bool)
    order = stable_argsort(set_ids)
    prev, nxt = occurrence_links(set_ids[order], keys[order])
    if backend is None:
        backend = active_backend()
    deep = backend.lru_depth_at_least(prev, nxt, ways)
    misses = np.empty(count, dtype=bool)
    misses[order] = (prev < 0) | deep
    return misses


def program_order_links(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-key occurrence links in program order.

    ``prev[t]`` is the previous access with the same key (``-1`` on
    first touch); ``nxt[t]`` the next (``count`` when the key never
    recurs).  One stable key sort; the links the Fig. 1 profiler's
    depth walk (:func:`repro.profiling.reuse.walk_chunks`) runs on.
    """
    count = len(keys)
    sole = np.zeros(1, dtype=np.uint8)
    return occurrence_links(np.broadcast_to(sole, (count,)), keys)


def skewed_miss_vector(
    bank_set_ids: Sequence[np.ndarray],
    keys: np.ndarray,
    seed: int = 0,
    num_sets: int | None = None,
    backend: Backend | None = None,
) -> np.ndarray:
    """Miss vector for a skewed cache (one frame per set per bank).

    Banks share state through the victim choice, so the replay is
    inherently sequential; victim choices are positional (one RNG draw
    per access up front, consumed by index), which both matches the
    reference simulator bit for bit and lets the NumPy backend replay
    speculatively.  ``num_sets`` bounds the per-bank set identities;
    when omitted it is inferred from the streams.
    """
    num_banks = len(bank_set_ids)
    if num_banks < 2:
        raise ValueError("a skewed cache needs at least two banks")
    count = len(keys)
    if count == 0:
        return np.zeros(0, dtype=bool)
    rng = np.random.default_rng(seed)
    victims = rng.integers(0, num_banks, size=count)
    # Keep the streams' native (usually narrow) dtype — the backends
    # narrow or widen as their kernels need.
    ids = np.stack([np.asarray(stream) for stream in bank_set_ids])
    if num_sets is None:
        num_sets = int(ids.max()) + 1
    keys = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64))
    if backend is None:
        backend = active_backend()
    return backend.skewed_misses(ids, keys, victims, num_sets)


#: Largest key value the distinct count handles with a dense scatter
#: (a 16 MB boolean table) instead of a full sort.
_DENSE_KEY_LIMIT = 1 << 24


def compulsory_count(keys: np.ndarray) -> int:
    """Number of first-touch misses.

    Every organization in the package identifies blocks exactly (tags
    are bijective given the set index), so the first access to a block
    always misses and the compulsory count is the distinct-block count.
    Small key universes count through one boolean scatter; anything
    wider falls back to ``np.unique``'s sort.
    """
    if not len(keys):
        return 0
    keys = np.asarray(keys)
    if keys.dtype.kind in "ui":
        low = int(keys.min()) if keys.dtype.kind == "i" else 0
        if low >= 0 and int(keys.max()) < _DENSE_KEY_LIMIT:
            seen = np.zeros(int(keys.max()) + 1, dtype=bool)
            seen[keys] = True
            return int(np.count_nonzero(seen))
    return int(np.unique(keys).size)

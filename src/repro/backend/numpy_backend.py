"""Pure-NumPy kernels — the default ``numpy`` backend.

Two sequential-replacement problems are solved with array passes only:

* **LRU depth test** — a chunked reuse-distance probe: an access's
  LRU stack depth is the number of *live* slots (latest occurrences of
  other keys) inside its reuse interval, counted with a chunk-end
  survivor cumsum plus a reverse doubling-budget gather that stops the
  moment a segment reaches the threshold.

* **Skewed-cache replay** — chunked speculative fixpoint: per chunk,
  guess the miss set, recompute the exact miss set the guessed
  insertions imply (one stable sort plus a handful of gather passes),
  repeat.  Each round extends the prefix on which the guess agrees
  with the true replay (the operator is prefix-causal and exact on
  true prefixes), so any fixpoint is the chunk's exact answer, and
  chunking keeps the eviction-dependency depth — hence the round count
  — near-constant; a chunk that has not converged within the round
  budget falls back to the reference loop for that chunk alone.
"""

from __future__ import annotations

import numpy as np

from repro.backend import python_backend
from repro.backend.sorting import stable_argsort

__all__ = ["lru_depth_at_least", "skewed_misses"]

#: Accesses per chunk of the LRU depth probe: shorter chunks keep the
#: chunk-end survivor shortcut sharp (fewer candidates die inside the
#: chunk) and the work arrays cache-resident; 4 Ki amortizes the
#: per-chunk numpy call overhead.
_CHUNK = 1 << 12

#: Elements of the padded (segments x probe-width) grid the dense probe
#: may materialize per round; larger rounds use the CSR gather.
_DENSE_LIMIT = 1 << 24

#: Flat elements per CSR gather batch in the sparse probe fallback.
_BATCH_LIMIT = 1 << 22

#: Smallest threshold for which undecided intervals are resolved by
#: scanning only the chunk's dying slots.  Below it, the newest-first
#: doubling probe usually decides within the first few slots, which a
#: full dying scan cannot exploit.
_DYING_SCAN_MIN = 64

#: Speculative-replay rounds per chunk before conceding that chunk to
#: the reference loop.  Convergence needs one round per level of the
#: chunk's deepest eviction-dependency chain; real chunks settle in a
#: handful.
_MAX_ROUNDS = 48

#: Accesses per chunk of the skewed-cache replay.  Rounds to converge
#: scale with in-chunk writes per frame, so smaller chunks mean fewer
#: rounds but more per-chunk fixed passes; 16K balances the two on
#: realistic geometries while keeping the scratch in cache.
_SKEW_CHUNK = 1 << 14


def _segment_batches(offsets: np.ndarray, limit: int):
    """Split CSR segments into batches of ~``limit`` flat elements."""
    segments = len(offsets) - 1
    start = 0
    while start < segments:
        end = int(np.searchsorted(offsets, offsets[start] + limit, side="right")) - 1
        if end <= start:
            end = start + 1
        yield start, end
        start = end


def lru_depth_at_least(
    prev: np.ndarray,
    nxt: np.ndarray,
    threshold: int,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Chunked vectorized LRU stack-depth test.

    ``prev``/``nxt`` are same-(set, key) occurrence links in grouped
    coordinates (sets contiguous, program order within each set), so a
    reuse interval never crosses a set boundary and one global pass
    serves every set at once.  A slot ``r`` in the interval
    ``(prev[t], t)`` counts toward the depth iff ``nxt[r] > t`` — it is
    then its key's latest occurrence, i.e. one distinct key above the
    access on the stack.

    Per chunk the candidate array is the compacted still-live slots
    carried from earlier chunks plus the chunk's own slots.  Because
    ``nxt`` uses the set-span-end sentinel, completed sets expire from
    the carried state on their own, so the carried slots always belong
    to the single set straddling the chunk boundary.  Intervals holding
    ``threshold`` slots that survive the whole chunk resolve by one
    cumsum lookup; intervals shorter than ``threshold`` resolve by
    arithmetic; the rest are probed newest-first with a doubling
    budget, stopping each segment at the threshold.

    The carried state is additionally truncated at the ``threshold``-th
    newest slot *durable through the next chunk* (``death`` at or past
    the next chunk's end).  Safe because a durable slot is alive at
    every query time in that chunk: a non-deep query holds fewer than
    ``threshold`` live slots — so fewer than ``threshold`` durable ones
    — and must start above the cut, while a query reaching below the
    cut contains all ``threshold`` kept durable slots and resolves deep
    via the survivor cumsum.  This bounds the carried state near
    ``threshold`` plus the slots dying inside the next chunk even when
    no key is globally final (cyclic traces), which keeps
    fully-associative (single giant set) traffic flat.
    """
    count = len(prev)
    out = np.zeros(count, dtype=bool)
    if count == 0:
        return out
    if threshold <= 0:
        np.greater_equal(prev, 0, out=out)
        return out
    if chunk_size is None:
        # Small thresholds resolve almost everything by arithmetic and
        # the survivor cumsum, so larger chunks amortize the per-chunk
        # passes; large thresholds keep chunks small so the carried
        # state and the probe grids stay cache-resident.
        chunk_size = max(_CHUNK, min(1 << 17, (_CHUNK << 5) // threshold))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")

    # 32-bit times/links halve the memory traffic of every pass below;
    # counts past 2**31 - 2 (sentinel needs count + 1) fall back to 64.
    dtype = np.int32 if count < (1 << 31) - 2 else np.int64
    nxt = np.ascontiguousarray(nxt, dtype=dtype)
    all_times = np.arange(count, dtype=dtype)
    # Rewriting first touches (prev < 0) as `prev = t - 1` gives them
    # empty reuse intervals (lo == hi below, arithmetically for t > t0
    # and via the live-slot search at t == t0, where slot t0 - 1 always
    # survives into the carried state), removing per-chunk special
    # cases.  First-touch misses are the caller's `prev < 0` term.
    prev = np.asarray(prev)
    prev = np.where(prev < 0, all_times - dtype(1), prev.astype(dtype, copy=False))

    # Death histogram: H[x] = #slots whose key recurs (or whose set
    # ends) at or before x.  Alive-at-t slots number A(t) = t - H[t]
    # (slots of completed sets are all dead by t, so this is set-local
    # even in multi-set grouped coordinates), giving per-access depth
    # bounds:  A(t) - (p + 1 - H[p])  <=  depth  <=  A(t).  Only worth
    # the passes at thresholds the dying scan serves; tiny thresholds
    # resolve through the first slots of the doubling probe anyway.
    use_bounds = threshold >= _DYING_SCAN_MIN
    deaths = (
        np.cumsum(np.bincount(nxt, minlength=count + 1)) if use_bounds else None
    )

    # Scratch reused across chunks: the candidate deaths, their
    # survivor flags and the survivor prefix sums.  The carried state
    # stays near `threshold` kept durables plus slots dying within the
    # next chunk; the guard below regrows the buffers in the rare case
    # the bound's slack is exceeded.
    max_cand = min(count, 3 * threshold + 2 * chunk_size + 64)
    cand_buf = np.empty(max_cand, dtype=dtype)
    surv_buf = np.empty(max_cand, dtype=bool)
    cum_buf = np.empty(max_cand + 1, dtype=dtype)
    cum_buf[0] = 0

    live_times = np.empty(0, dtype=dtype)
    live_death = np.empty(0, dtype=dtype)
    for t0 in range(0, count, chunk_size):
        t1 = min(t0 + chunk_size, count)
        n = t1 - t0
        carried = live_times.size
        m = carried + n
        if m > cand_buf.size:
            cand_buf = np.empty(m + chunk_size, dtype=dtype)
            surv_buf = np.empty(m + chunk_size, dtype=bool)
            cum_buf = np.empty(m + chunk_size + 1, dtype=dtype)
            cum_buf[0] = 0
        cand_death = cand_buf[:m]
        cand_death[:carried] = live_death
        cand_death[carried:] = nxt[t0:t1]

        p = prev[t0:t1]
        times = all_times[t0:t1]
        # In-chunk reuse intervals start at an arithmetic offset; only
        # intervals reaching across the chunk boundary need a binary
        # search, and only into the (compacted) carried slots.  The
        # interval's upper end stays implicit: access ``t`` maps to
        # candidate index ``hi = carried + (t - t0)``, so ``cum[hi]``
        # is just a slice of the prefix sums.
        lo = p + (carried + 1 - t0)
        cross = np.flatnonzero(p < t0)
        if len(cross):
            lo[cross] = np.searchsorted(live_times, p[cross], side="right")

        # Chunk-end survivors are live at every access in the chunk:
        # intervals already holding `threshold` of them are resolved
        # deep without any gather, and intervals with fewer than
        # `threshold` candidate slots can never reach the depth — the
        # common case for cache hits.
        surv = surv_buf[:m]
        np.greater_equal(cand_death, t1, out=surv)
        np.cumsum(surv, out=cum_buf[1 : m + 1])
        sure = cum_buf[carried:m] - cum_buf[lo]
        sure_deep = sure >= threshold
        out[t0:t1][sure_deep] = True
        length = (times - lo) + (carried - t0)
        need = np.flatnonzero(~sure_deep & (length >= threshold))
        if len(need) and use_bounds:
            t_need = times[need]
            p_need = p[need]
            alive = t_need - deaths[t_need]
            slack = alive - (p_need + 1 - deaths[p_need])
            out[t0:t1][need[slack >= threshold]] = True
            rest = need[(slack < threshold) & (alive >= threshold)]
            if len(rest):
                # The survivor cumsum already counts the `death >= t1`
                # slots of each interval; only slots dying inside the
                # chunk can close the remaining gap, and they are few.
                dpos = np.flatnonzero(~surv)
                a = np.searchsorted(dpos, lo[rest])
                b = np.searchsorted(dpos, rest + carried)
                short = sure[rest]
                act = np.flatnonzero(short + (b - a) >= threshold)
                if len(act):
                    counts = _scan_dying(
                        cand_death[dpos], a[act], b[act], times[rest[act]]
                    )
                    deep_now = (short[act] + counts) >= threshold
                    out[t0:t1][rest[act[deep_now]]] = True
        elif len(need):
            _probe(
                cand_death, lo[need], times[need], need + carried,
                threshold, out,
            )

        # Compact the carried state for the next chunk: survivors only,
        # truncated at the `threshold`-th newest durable slot.
        live_times = np.concatenate(
            [live_times[surv[:carried]], times[surv[carried:]]]
        )
        live_death = cand_death[surv]
        if len(live_times) > 2 * threshold + 64:
            t2 = min(t1 + chunk_size, count)
            durable = np.flatnonzero(live_death >= t2)
            if len(durable) > threshold:
                cut = durable[-threshold]
                live_times = live_times[cut:]
                live_death = live_death[cut:]
    return out


def _scan_dying(ddeaths, a, b, g_t):
    """Per-interval count of dying slots still alive at the query time.

    ``ddeaths`` are the deaths of the chunk's dying slots in position
    order; interval ``i`` covers dying-slot ranks ``[a[i], b[i])`` and
    queries at time ``g_t[i]``.  Callers guarantee every range is
    non-empty.  Batched so no flat gather exceeds ``_BATCH_LIMIT``.
    """
    take = b - a
    counts = np.empty(len(g_t), dtype=np.int64)
    offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(take)])
    for s0, s1 in _segment_batches(offsets, _BATCH_LIMIT):
        b_take = take[s0:s1]
        flat = np.arange(
            int(offsets[s0]), int(offsets[s1]), dtype=np.int64
        ) + np.repeat(a[s0:s1] - offsets[s0:s1], b_take)
        alive = ddeaths[flat] > np.repeat(g_t[s0:s1], b_take)
        csum = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(alive)])
        rel = offsets[s0 : s1 + 1] - offsets[s0]
        counts[s0:s1] = csum[rel[1:]] - csum[rel[:-1]]
    return counts


def _probe(cand_death, g_lo, g_t, g_hi, threshold, out):
    """Reverse doubling-budget scan of the undecided intervals.

    Each interval is gathered newest-first in rounds of doubling width,
    dropping out as soon as ``threshold`` live slots are seen or the
    interval is exhausted; wide rounds fall back to a CSR gather so no
    padded grid exceeds ``_DENSE_LIMIT`` elements.
    """
    if not len(g_t):
        return
    live_seen = np.zeros(len(g_t), dtype=np.int64)
    cursor = np.asarray(g_hi).copy()  # un-probed upper end of each interval
    # When even the full intervals make a small padded grid, decide
    # everything in one round — the doubling schedule's early exit
    # cannot recoup its per-round pass overhead at that size.
    width_cap = int(np.max(cursor - g_lo))
    if len(g_t) * width_cap <= _DENSE_LIMIT >> 4:
        budget = width_cap
    else:
        budget = threshold
    open_ids = np.flatnonzero(cursor > g_lo)
    while len(open_ids):
        take = np.minimum(cursor[open_ids] - g_lo[open_ids], budget)
        width = int(take.max())
        padded = len(open_ids) * width
        # The padded grid must be small AND not mostly padding —
        # skewed interval lengths otherwise waste the dense gather.
        if padded <= _DENSE_LIMIT and padded <= 2 * int(take.sum()):
            lanes = np.arange(width, dtype=np.int64)[None, :]
            valid = lanes < take[:, None]
            grid = np.where(
                valid, (cursor[open_ids] - take)[:, None] + lanes, 0
            )
            alive = (cand_death[grid] > g_t[open_ids, None]) & valid
            live_seen[open_ids] += alive.sum(axis=1)
        else:
            offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(take)]
            )
            for s0, s1 in _segment_batches(offsets, _BATCH_LIMIT):
                ids = open_ids[s0:s1]
                b_take = take[s0:s1]
                seg = np.repeat(np.arange(s1 - s0, dtype=np.int64), b_take)
                flat = np.arange(
                    int(offsets[s0]), int(offsets[s1]), dtype=np.int64
                ) + np.repeat(
                    cursor[ids] - b_take - offsets[s0:s1], b_take
                )
                alive = cand_death[flat] > np.repeat(g_t[ids], b_take)
                live_seen[ids] += np.bincount(seg[alive], minlength=s1 - s0)
        cursor[open_ids] -= take
        open_ids = open_ids[
            (live_seen[open_ids] < threshold)
            & (cursor[open_ids] > g_lo[open_ids])
        ]
        budget = min(budget * 2, 1 << 62)
    out[g_t[live_seen >= threshold]] = True


def _replay_chunk_exact(
    frames, keys_c, ins_frame_c, frame_key, frame_full, miss_out
) -> None:
    """Reference replay of one chunk from materialized frame state.

    Used when a chunk's speculative rounds fail to converge; updates
    the chunk's slice of the miss vector (``miss_out`` is a view) and
    the frame state arrays in place, so the chunked driver continues
    exactly afterwards.
    """
    key_list = keys_c.tolist()
    ins_list = ins_frame_c.tolist()
    frame_lists = [row.tolist() for row in frames]
    for i in range(len(key_list)):
        k = key_list[i]
        for row in frame_lists:
            f = row[i]
            if frame_full[f] and frame_key[f] == k:
                break
        else:
            miss_out[i] = True
            f = ins_list[i]
            frame_key[f] = k
            frame_full[f] = True


def skewed_misses(
    bank_ids: np.ndarray,
    keys: np.ndarray,
    victims: np.ndarray,
    num_sets: int,
    max_rounds: int | None = None,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Skewed-cache miss vector by chunked speculative replay.

    The victim stream is positional (drawn per access, consumed by
    index), so the frame every access *would* insert into is known up
    front: ``ins_frame[i] = victims[i] * num_sets + bank_ids[victims[i], i]``
    — and hits never move state, so the frame contents are a pure
    function of *which* accesses miss.  Per chunk, given the exact
    frame contents at the chunk start, the miss set implied by a
    guessed miss set is computable without sequential state: the
    current holder of any frame an access looks in is the key of the
    latest guessed in-chunk insertion into it — one lookup into the
    (frame, time)-sorted insertion order, which is static and sliced
    per chunk — and the frame's frozen chunk-start content when no
    guessed insertion precedes the access.  An access hits iff some
    bank's frame holds its key.

    The operator at position ``t`` reads the guess only at positions
    before ``t``, so it is exact wherever its guess prefix is exact,
    the exact prefix grows every round, and a fixpoint is the chunk's
    true miss set.  Rounds needed grow with the chunk's
    eviction-dependency depth — the point of chunking: depth scales
    with writes per frame *within* the chunk, keeping rounds
    near-constant where a global fixpoint would need hundreds.  A
    chunk exceeding ``max_rounds`` falls back to a reference replay of
    that chunk alone, seeded from the same materialized state.
    """
    num_banks, count = bank_ids.shape
    if count == 0:
        return np.zeros(0, dtype=bool)
    if max_rounds is None:
        max_rounds = _MAX_ROUNDS
    if chunk_size is None:
        chunk_size = _SKEW_CHUNK
    chunk_size = min(chunk_size, count)
    bank_ids = np.asarray(bank_ids)
    vic8 = np.asarray(victims).astype(np.uint8)
    nframes = num_banks * num_sets

    # Dtype discipline: arrays that only carry *values* (keys, frame
    # ids) run in the narrowest dtype that fits — 16-bit frame ids also
    # keep the per-chunk sort a single radix pass — but arrays used as
    # *indices* stay ``intp``: NumPy re-casts any other index dtype to
    # ``intp`` on every fancy-indexing call, which would dominate the
    # per-round cost.
    fdt = np.uint16 if nframes <= 0xFFFF else np.uint32
    keys = np.asarray(keys)
    if keys.dtype.kind in "ui" and keys.dtype.itemsize > 2 and (
        keys.dtype.kind == "u" or int(keys.min()) >= 0
    ):
        kmax = int(keys.max())
        if kmax < 1 << 16:
            keys = keys.astype(np.uint16)
        elif kmax < 1 << 32 and keys.dtype.itemsize > 4:
            keys = keys.astype(np.uint32)

    # Bank-major item table: item (b, i) is the frame access ``i``
    # looks in within bank ``b``; exactly one item per access — its
    # victim bank's — doubles as the insertion slot.  Frames of
    # different banks occupy disjoint id ranges, so a frame never
    # repeats within one time step and *any* flat layout that is
    # time-ordered within each bank sorts into frame-grouped,
    # time-ordered segments; bank-major concatenation is that layout
    # without a transpose.  One stable sort of a chunk's items by bare
    # frame id then yields both the insertion sequence and every
    # lookup's place in it — no per-query binary search anywhere.
    bank_base = (np.arange(num_banks) * num_sets).astype(fdt)
    itemsT = bank_ids.astype(fdt) + bank_base[:, None]
    framesT_ix = itemsT.astype(np.intp)
    is_insT = np.empty((num_banks, count), dtype=bool)
    for b in range(num_banks):
        np.equal(vic8, b, out=is_insT[b])
    ins_frame = itemsT[0]
    for b in range(1, num_banks):
        ins_frame = np.where(is_insT[b], itemsT[b], ins_frame)
    ins_frame = ins_frame.astype(np.intp)

    frame_key = np.zeros(nframes, dtype=keys.dtype)
    frame_full = np.zeros(nframes, dtype=bool)
    misses = np.zeros(count, dtype=bool)

    # Scratch reused across chunks (the last chunk slices it shorter).
    ne_max = chunk_size * num_banks
    csb_buf = np.empty(ne_max + 1, dtype=np.intp)
    csb_buf[0] = 0
    inv_buf = np.empty(ne_max, dtype=np.intp)
    arange_e = np.arange(ne_max, dtype=np.intp)
    cum = np.empty(chunk_size + 1, dtype=np.intp)
    cum[0] = 0
    starts = np.empty(nframes + 1, dtype=np.intp)
    starts[0] = 0
    s_hi = np.empty((num_banks, chunk_size), dtype=np.intp)
    s_lo = np.empty((num_banks, chunk_size), dtype=np.intp)
    cnt_hi = np.empty((num_banks, chunk_size), dtype=np.intp)
    clo = np.empty((num_banks, chunk_size), dtype=np.intp)
    written = np.empty((num_banks, chunk_size), dtype=bool)
    cand_eq = np.empty((num_banks, chunk_size), dtype=bool)
    cand = np.empty((num_banks, chunk_size), dtype=keys.dtype)
    keys_live_buf = np.empty(chunk_size + 1, dtype=keys.dtype)
    keys_live_buf[0] = 0  # sentinel, only read where ``wrt`` is False

    for c0 in range(0, count, chunk_size):
        c1 = min(c0 + chunk_size, count)
        nc = c1 - c0
        ne = nc * num_banks
        keys_c = keys[c0:c1]
        ins_frame_c = ins_frame[c0:c1]
        framesT = framesT_ix[:, c0:c1]
        items = itemsT[:, c0:c1].reshape(-1)
        is_ins_flat = is_insT[:, c0:c1].reshape(-1)

        so = stable_argsort(items)
        is_ins_e = is_ins_flat[so]
        # Exclusive running insertion count over sorted positions
        # (cumsum shifted by the leading zero), the count at each
        # frame's segment start (segment starts via bincount), and each
        # item's own sorted position (the inverse permutation).
        csb = csb_buf[: ne + 1]
        np.cumsum(is_ins_e, dtype=np.intp, out=csb[1:])
        counts = np.bincount(items, minlength=nframes)
        np.cumsum(counts, out=starts[1:])
        base = csb[starts[:-1]]
        inv = inv_buf[:ne]
        inv[so] = arange_e[:ne]
        posT = inv.reshape(num_banks, nc)
        hi = s_hi[:, :nc]
        np.take(csb[:ne], posT, out=hi)  # insertions into my frame
        lo = s_lo[:, :nc]
        np.take(base, framesT, out=lo)   # before me / before its start
        order = so[np.flatnonzero(is_ins_e)] % nc  # (frame, time) ins. order
        keys_s = keys_c[order]
        frozen_hit = frame_full[framesT] & (
            frame_key[framesT] == keys_c[None, :]
        )

        cum_c = cum[: nc + 1]
        cnt = cnt_hi[:, :nc]
        low = clo[:, :nc]
        wrt = written[:, :nc]
        ceq = cand_eq[:, :nc]
        cnd = cand[:, :nc]
        keys_live = keys_live_buf[: nc + 1]
        miss_c = ~frozen_hit.any(axis=0)
        converged = False
        for _ in range(max_rounds):
            g = miss_c[order]
            np.cumsum(g, dtype=np.intp, out=cum_c[1:])
            mpos = np.flatnonzero(g)
            nm = len(mpos)
            if nm:
                np.take(cum_c, hi, out=cnt)
                np.take(cum_c, lo, out=low)
                np.greater(cnt, low, out=wrt)
                np.take(keys_s, mpos, out=keys_live[1 : nm + 1])
                np.take(keys_live[: nm + 1], cnt, out=cnd)
                np.equal(cnd, keys_c[None, :], out=ceq)
                hit = np.where(wrt, ceq, frozen_hit)
            else:
                hit = frozen_hit
            new_miss = ~hit.any(axis=0)
            if np.array_equal(new_miss, miss_c):
                converged = True
                break
            miss_c = new_miss
        if not converged:
            _replay_chunk_exact(
                framesT, keys_c, ins_frame_c, frame_key, frame_full,
                misses[c0:c1],
            )
            continue
        misses[c0:c1] = miss_c

        # Materialize the chunk's writes: last insertion per frame, in
        # (frame, time) order the run ends are exactly the survivors.
        # ``mpos`` from the converged round is still the final miss
        # set — the fixpoint test compared against it.
        if len(mpos):
            wseq = order[mpos]
            wframes = ins_frame_c[wseq]
            last = np.empty(len(wframes), dtype=bool)
            last[-1] = True
            np.not_equal(wframes[1:], wframes[:-1], out=last[:-1])
            frame_key[wframes[last]] = keys_c[wseq[last]]
            frame_full[wframes[last]] = True
    return misses


"""JIT-compiled kernels — the optional ``numba`` backend.

The per-access reference loops compiled with :func:`numba.njit`: the
same algorithms as the ``python`` backend (so bit-identity is by
construction), at native speed.  When :mod:`numba` is not installed
the backend is listed as *unavailable* (see :mod:`repro.backend`) —
discoverable by ``repro backends`` and selectable only with an
actionable error — exactly like the parity kernel in
:mod:`repro.gf2.bitvec` degrades to its table fallback without new
NumPy.  Installed but failing to import, its kernels raise and every
call degrades to the NumPy kernels with a recorded warning.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lru_depth_at_least", "skewed_misses", "HAS_NUMBA"]

try:  # pragma: no cover - exercised only in the Numba CI matrix entry
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - the default environment
    njit = None
    HAS_NUMBA = False


if HAS_NUMBA:  # pragma: no cover - exercised only in the Numba CI entry

    @njit(cache=True)
    def _lru_depth_at_least(prev, nxt, threshold):
        count = len(prev)
        out = np.zeros(count, dtype=np.bool_)
        for t in range(count):
            lo = prev[t]
            if lo < 0:
                continue
            seen = 0
            r = t - 1
            while r > lo:
                if nxt[r] > t:
                    seen += 1
                    if seen >= threshold:
                        break
                r -= 1
            out[t] = seen >= threshold
        return out

    @njit(cache=True)
    def _skewed_misses(bank_ids, keys, victims, num_sets):
        num_banks, count = bank_ids.shape
        out = np.zeros(count, dtype=np.bool_)
        # Flat frame array: one (key, valid) pair per set per bank.
        content = np.zeros(num_banks * num_sets, dtype=np.uint64)
        valid = np.zeros(num_banks * num_sets, dtype=np.bool_)
        for i in range(count):
            key = keys[i]
            hit = False
            for b in range(num_banks):
                frame = b * num_sets + bank_ids[b, i]
                if valid[frame] and content[frame] == key:
                    hit = True
                    break
            if not hit:
                out[i] = True
                victim = victims[i]
                frame = victim * num_sets + bank_ids[victim, i]
                content[frame] = key
                valid[frame] = True
        return out

    def lru_depth_at_least(prev, nxt, threshold):
        return _lru_depth_at_least(
            np.ascontiguousarray(prev, dtype=np.int64),
            np.ascontiguousarray(nxt, dtype=np.int64),
            np.int64(threshold),
        )

    def skewed_misses(bank_ids, keys, victims, num_sets):
        return _skewed_misses(
            np.ascontiguousarray(bank_ids, dtype=np.int64),
            np.ascontiguousarray(keys, dtype=np.uint64),
            np.ascontiguousarray(victims, dtype=np.int64),
            np.int64(num_sets),
        )

else:

    def _unavailable(*_args, **_kwargs):
        raise RuntimeError(
            "the numba backend is listed but numba is not importable; "
            "select the numpy backend instead"
        )

    lru_depth_at_least = _unavailable
    skewed_misses = _unavailable


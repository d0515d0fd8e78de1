"""Reference per-access loops — the ``python`` backend.

These are the retired engine loops, kept registered (lowest priority)
as the always-available oracle: every other backend's kernels are
property-tested bit-identical to these, and the NumPy skewed kernel
falls back to :func:`skewed_misses` on the rare trace where its
speculative replay does not converge within the round budget.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lru_depth_at_least", "skewed_misses"]


def lru_depth_at_least(
    prev: np.ndarray, nxt: np.ndarray, threshold: int
) -> np.ndarray:
    """Backward stack walk per reaccess, stopping at ``threshold``.

    A slot ``r`` in the grouped timeline is on the stack above the
    access at ``t`` exactly when it is its key's most recent occurrence
    before ``t`` (``nxt[r] > t``); counting those between the previous
    occurrence and ``t`` is the LRU stack depth.
    """
    count = len(prev)
    out = np.zeros(count, dtype=bool)
    prev_list = prev.tolist()
    nxt_list = nxt.tolist()
    for t in range(count):
        lo = prev_list[t]
        if lo < 0:
            continue
        seen = 0
        r = t - 1
        while r > lo:
            if nxt_list[r] > t:
                seen += 1
                if seen >= threshold:
                    break
            r -= 1
        out[t] = seen >= threshold
    return out


def skewed_misses(
    bank_set_ids, keys: np.ndarray, victims: np.ndarray, num_sets: int
) -> np.ndarray:
    """Sequential dict replay of the skewed cache (the reference).

    Victim choices are consumed positionally (one per access, drawn
    upstream), matching the scalar simulator bit for bit.
    """
    num_banks = len(bank_set_ids)
    count = len(keys)
    if count == 0:
        return np.zeros(0, dtype=bool)
    id_lists = [np.asarray(ids).tolist() for ids in bank_set_ids]
    key_list = keys.tolist()
    victim_list = np.asarray(victims).tolist()
    banks: list[dict] = [{} for _ in range(num_banks)]
    flags: list[bool] = []
    for i in range(count):
        key = key_list[i]
        for b in range(num_banks):
            if banks[b].get(id_lists[b][i]) == key:
                flags.append(False)
                break
        else:
            flags.append(True)
            victim = victim_list[i]
            banks[victim][id_lists[victim][i]] = key
    return np.array(flags, dtype=bool)


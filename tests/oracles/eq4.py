"""Eq. 4 from the null-space side: the oracle of :class:`MissEstimator`.

``misses(H) = sum over v in N(H) of misses(v)``, evaluated by
enumerating the ``2^(n - rank)`` members of ``N(H)`` — cheap when the
rank is close to ``n``, and independent of the support-side membership
test that :class:`~repro.profiling.estimator.MissEstimator` runs.
"""

from __future__ import annotations

import numpy as np

from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import ConflictProfile


def estimate_misses_nullspace(
    profile: ConflictProfile, hash_function: XorHashFunction
) -> int:
    """Eq. 4 by enumerating the null space.

    One vectorized enumeration of the ``2^(n - rank)`` null-space
    members plus one fancy-indexed gather into the histogram.
    """
    if profile.n != hash_function.n:
        raise ValueError(
            f"profile window ({profile.n} bits) does not match hash function "
            f"({hash_function.n} bits)"
        )
    members = hash_function.null_space().member_array()
    return int(profile.counts[members.astype(np.intp)].sum())


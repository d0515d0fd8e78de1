"""The frozen search oracle still replays today's steepest descent.

:func:`tests.oracles.search.hill_climb_scalar` carries its own scalar
Eq. 4 cost, so nothing ties it to the batched climber but this test:
both must return the same function, cost history, step count and
evaluation count.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling import estimator
from repro.profiling.conflict_profile import profile_blocks
from repro.search.families import GeneralXorFamily, PermutationFamily
from tests.oracles.search import hill_climb_scalar
from tests.search.test_hill_climb import (
    _ALL_FAMILIES,
    STEEPEST,
    _assert_identical,
    sparse_profiles,
)


@settings(max_examples=40, deadline=None)
@given(
    sparse_profiles(),
    st.sampled_from(_ALL_FAMILIES),
    st.integers(min_value=0, max_value=1000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
def test_oracle_replays_steepest_descent(profile, family, seed, max_steps):
    start = family.random_member(np.random.default_rng(seed))
    _assert_identical(
        STEEPEST.search(profile, family, start=start, max_steps=max_steps),
        hill_climb_scalar(profile, family, start=start, max_steps=max_steps),
    )


def test_oracle_replays_packed_window():
    """At n = 20 the climber scores its neighbourhoods on bit-packed
    planes; the oracle never does."""
    rng = np.random.default_rng(4)
    blocks = rng.integers(0, 1 << 12, size=3000).astype(np.uint64) * np.uint64(37)
    profile = profile_blocks(blocks, 256, 20)
    for family in (PermutationFamily(20, 6, 2), GeneralXorFamily(20, 6, 2)):
        with mock.patch.object(
            estimator, "packed_parity_rows", wraps=estimator.packed_parity_rows
        ) as packed:
            production = STEEPEST.search(profile, family)
        # One mask per call builds a parity row; more is a candidate gather.
        assert any(len(call.args[1]) > 1 for call in packed.call_args_list)
        _assert_identical(production, hill_climb_scalar(profile, family))

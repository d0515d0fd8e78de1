"""Tests for the lockstep portfolio race.

The load-bearing properties: each racing lane replicates its member's
solo trajectory bit-identically (so the portfolio is never worse than
its best deterministic member), the shared gathers make the race
cheaper than the sum of solo runs, and the whole thing is
deterministic whenever its members are.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling.conflict_profile import ConflictProfile, profile_blocks
from repro.search.families import GeneralXorFamily, PermutationFamily
from repro.search.portfolio import DEFAULT_ZOO, Portfolio
from repro.search.strategies import strategy_for_name


@pytest.fixture(scope="module")
def profile():
    rng = np.random.default_rng(0)
    blocks = np.concatenate([
        np.tile(
            np.stack(
                [k * 256 + np.arange(16, dtype=np.uint64) for k in range(4)],
                axis=1,
            ).reshape(-1),
            10,
        ),
        rng.integers(0, 1 << 12, size=3000).astype(np.uint64),
    ])
    return profile_blocks(blocks, 64, 12)


FAMILY = PermutationFamily(12, 6, 2)


@st.composite
def sparse_profiles(draw, n=10):
    counts = np.zeros(1 << n, dtype=np.int64)
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=(1 << n) - 1),
                st.integers(min_value=1, max_value=200),
            ),
            max_size=25,
        )
    )
    for vector, weight in entries:
        counts[vector] += weight
    return ConflictProfile(n, counts)


def _solo(spec, profile, family):
    return strategy_for_name(spec).search(
        profile, family, rng=np.random.default_rng(0)
    )


class TestReplication:
    def test_equals_best_deterministic_member(self, profile):
        steepest = _solo("steepest", profile, FAMILY)
        first = _solo("first-improvement", profile, FAMILY)
        race = Portfolio().search(profile, FAMILY)
        assert race.estimated_misses == min(
            steepest.estimated_misses, first.estimated_misses
        )
        winner = min(
            (steepest, first), key=lambda result: result.estimated_misses
        )
        assert race.function == winner.function
        assert race.history == winner.history

    @settings(max_examples=15, deadline=None)
    @given(sparse_profiles(), st.booleans())
    def test_never_worse_on_random_profiles(self, profile, general):
        family = (
            GeneralXorFamily(10, 5, 2) if general
            else PermutationFamily(10, 5, None)
        )
        solo_best = min(
            _solo(spec, profile, family).estimated_misses
            for spec in ("steepest", "first-improvement")
        )
        race = Portfolio().search(profile, family)
        assert race.estimated_misses == solo_best

    def test_full_zoo_contains_descent_lanes(self, profile):
        """The 4-member race still bounds by the deterministic lanes."""
        solo_best = min(
            _solo(spec, profile, FAMILY).estimated_misses
            for spec in ("steepest", "first-improvement")
        )
        race = Portfolio(members=DEFAULT_ZOO).search(
            profile, FAMILY, rng=np.random.default_rng(0)
        )
        assert race.estimated_misses <= solo_best


class TestSharedScoring:
    def test_cheaper_than_sum_of_solo_runs(self, profile):
        steepest = _solo("steepest", profile, FAMILY)
        first = _solo("first-improvement", profile, FAMILY)
        race = Portfolio().search(profile, FAMILY)
        assert race.evaluations < steepest.evaluations + first.evaluations

    def test_evaluations_meter_the_shared_estimator(self, profile):
        from repro.profiling.estimator import MissEstimator

        estimator = MissEstimator(profile)
        race = Portfolio().search(profile, FAMILY, estimator=estimator)
        assert race.evaluations == estimator.evaluations


class TestDeterminism:
    def test_bit_identical_reruns(self, profile):
        first = Portfolio().search(profile, FAMILY)
        second = Portfolio().search(profile, FAMILY)
        assert first.function == second.function
        assert first.estimated_misses == second.estimated_misses
        assert first.evaluations == second.evaluations
        assert first.history == second.history

    def test_deterministic_flag_tracks_members(self):
        assert Portfolio().deterministic
        assert not Portfolio(members=DEFAULT_ZOO).deterministic

    def test_stochastic_members_fold_the_seed(self, profile):
        race = Portfolio(members=("steepest", "anneal"), seed=7)
        one = race.search(profile, FAMILY)
        two = race.search(profile, FAMILY)
        assert one.estimated_misses == two.estimated_misses
        assert one.function == two.function


class TestResolutionAndNames:
    def test_spec_strings(self):
        assert strategy_for_name("portfolio").members == DEFAULT_ZOO[:2]
        assert strategy_for_name("portfolio:3").members == DEFAULT_ZOO[:3]
        assert strategy_for_name("portfolio:1").members == DEFAULT_ZOO[:1]
        assert strategy_for_name("portfolio(4)").members == DEFAULT_ZOO

    def test_spec_bounds(self):
        with pytest.raises(ValueError):
            strategy_for_name("portfolio:0")
        with pytest.raises(ValueError):
            strategy_for_name(f"portfolio:{len(DEFAULT_ZOO) + 1}")

    def test_name_encodes_members_and_mode(self):
        assert Portfolio().name == "portfolio(steepest+first-improvement)"
        stochastic = Portfolio(members=("steepest", "anneal"), seed=3)
        assert "seed=3" in stochastic.name

    def test_validation(self):
        with pytest.raises(ValueError):
            Portfolio(members=())
        nested = Portfolio(members=(Portfolio(),))
        with pytest.raises(ValueError):
            nested.search(
                ConflictProfile(6, np.zeros(1 << 6, dtype=np.int64)),
                PermutationFamily(6, 3, None),
            )

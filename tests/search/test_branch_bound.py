"""Tests for the certified branch-and-bound search.

The exact search must agree with brute-force enumeration of the
family's full-rank members on every instance small enough to sweep,
its lower bound must never exceed any completion's true cost, and a
budget exit must report a sound gap (proven bound <= true optimum <=
incumbent).
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.hashfn import XorHashFunction
from repro.profiling.conflict_profile import ConflictProfile
from repro.profiling.estimator import MissEstimator
from repro.search.branch_bound import (
    DEFAULT_MAX_NODES,
    BranchBound,
    admissible_lower_bound,
    branch_bound_search,
    exhaustive_node_count,
)
from repro.search.exhaustive import optimal_bit_select
from repro.search.families import (
    BitSelectFamily,
    GeneralXorFamily,
    PermutationFamily,
)
from repro.search.strategies import strategy_for_name

SMALL_FAMILIES = [
    BitSelectFamily(6, 3),
    PermutationFamily(6, 3, 1),
    PermutationFamily(6, 3, 2),
    PermutationFamily(6, 3, None),
    GeneralXorFamily(6, 3, 2),
]


@st.composite
def sparse_profiles(draw, n=6):
    counts = np.zeros(1 << n, dtype=np.int64)
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=(1 << n) - 1),
                st.integers(min_value=1, max_value=200),
            ),
            max_size=20,
        )
    )
    for vector, weight in entries:
        counts[vector] += weight
    return ConflictProfile(n, counts)


def brute_force_optimum(profile, family, prefix=()):
    """Cheapest full-rank completion of ``prefix`` by domain masks."""
    estimator = MissEstimator(profile)
    remaining = [
        tuple(int(v) for v in family.column_domain(c))
        for c in range(len(prefix), family.m)
    ]
    best = None
    for tail in product(*remaining):
        columns = tuple(prefix) + tail
        if not XorHashFunction(family.n, columns).is_full_rank:
            continue
        cost = estimator.cost(columns)
        if best is None or cost < best:
            best = cost
    return best


class TestCertifiedOptimum:
    @settings(max_examples=10, deadline=None)
    @given(sparse_profiles(), st.integers(min_value=0, max_value=4))
    def test_matches_brute_force(self, profile, family_index):
        family = SMALL_FAMILIES[family_index]
        result = branch_bound_search(profile, family)
        assert result.certified
        assert result.optimality_gap == 0
        assert result.estimated_misses == brute_force_optimum(profile, family)
        assert result.function.is_full_rank
        assert result.strategy_name == "branch-bound"

    @settings(max_examples=5, deadline=None)
    @given(sparse_profiles(n=8))
    def test_matches_exhaustive_bit_select(self, profile):
        """Independent oracle: Table 3's optimal bit-select search."""
        family = BitSelectFamily(8, 4)
        result = branch_bound_search(profile, family)
        oracle = optimal_bit_select(8, 4, profile=profile, mode="estimate")
        assert result.certified
        assert result.estimated_misses == oracle.misses

    def test_via_hill_climb_strategy_seam(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(1 << 6, dtype=np.int64)
        counts[rng.integers(1, 1 << 6, size=30)] = rng.integers(
            1, 100, size=30
        )
        profile = ConflictProfile(6, counts)
        family = PermutationFamily(6, 3, None)
        result = strategy_for_name("branch-bound").search(profile, family)
        assert result.certified
        assert result.estimated_misses == brute_force_optimum(profile, family)


class TestAdmissibleLowerBound:
    @settings(max_examples=10, deadline=None)
    @given(
        sparse_profiles(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_never_exceeds_any_completion(
        self, profile, family_index, level, seed
    ):
        family = SMALL_FAMILIES[family_index]
        member = family.random_member(np.random.default_rng(seed))
        prefix = member.columns[:level]
        estimator = MissEstimator(profile)
        bound = admissible_lower_bound(estimator, family, prefix)
        assert bound <= brute_force_optimum(profile, family, prefix)

    def test_full_assignment_is_exact(self):
        rng = np.random.default_rng(5)
        counts = np.zeros(1 << 6, dtype=np.int64)
        counts[rng.integers(1, 1 << 6, size=25)] = rng.integers(1, 50, size=25)
        profile = ConflictProfile(6, counts)
        estimator = MissEstimator(profile)
        for family in SMALL_FAMILIES:
            member = family.random_member(np.random.default_rng(9))
            bound = admissible_lower_bound(estimator, family, member.columns)
            assert bound == estimator.cost(member.columns)

    def test_rejects_overlong_prefix(self):
        profile = ConflictProfile(6, np.zeros(1 << 6, dtype=np.int64))
        estimator = MissEstimator(profile)
        with pytest.raises(ValueError):
            admissible_lower_bound(
                estimator, BitSelectFamily(6, 3), (1, 2, 4, 8)
            )


class TestBudgetExit:
    @settings(max_examples=8, deadline=None)
    @given(
        sparse_profiles(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_gap_brackets_the_true_optimum(
        self, profile, family_index, max_nodes
    ):
        """Even out of budget: proven bound <= optimum <= incumbent."""
        family = SMALL_FAMILIES[family_index]
        result = branch_bound_search(profile, family, max_nodes=max_nodes)
        optimum = brute_force_optimum(profile, family)
        assert result.optimality_gap >= 0
        assert result.estimated_misses - result.optimality_gap <= optimum
        assert optimum <= result.estimated_misses
        assert result.certified == (result.optimality_gap == 0)

    def test_rejects_nonpositive_budget(self):
        profile = ConflictProfile(6, np.zeros(1 << 6, dtype=np.int64))
        with pytest.raises(ValueError):
            branch_bound_search(profile, BitSelectFamily(6, 3), max_nodes=0)


class TestNodeAccounting:
    def test_exhaustive_node_count_is_prefix_count(self):
        family = BitSelectFamily(4, 2)
        sizes = [len(family.column_domain(c)) for c in range(2)]
        assert exhaustive_node_count(family) == 1 + sizes[0]
        family = PermutationFamily(6, 3, None)
        sizes = [len(family.column_domain(c)) for c in range(3)]
        assert exhaustive_node_count(family) == (
            1 + sizes[0] + sizes[0] * sizes[1]
        )

    def test_prunes_below_exhaustive(self):
        rng = np.random.default_rng(11)
        counts = np.zeros(1 << 8, dtype=np.int64)
        counts[rng.integers(1, 1 << 8, size=60)] = rng.integers(
            1, 100, size=60
        )
        profile = ConflictProfile(8, counts)
        family = PermutationFamily(8, 4, None)
        result = branch_bound_search(profile, family)
        assert result.certified
        assert result.nodes_expanded < exhaustive_node_count(family)
        assert result.nodes_pruned > 0


class TestStrategyRegistration:
    def test_spec_strings(self):
        strategy = strategy_for_name("branch-bound")
        assert isinstance(strategy, BranchBound)
        assert strategy.max_nodes == DEFAULT_MAX_NODES
        assert strategy_for_name("branch-bound:500").max_nodes == 500
        assert strategy_for_name("branch-and-bound").max_nodes == (
            DEFAULT_MAX_NODES
        )
        assert strategy_for_name("branchandbound(250)").max_nodes == 250

    def test_name_encodes_budget(self):
        assert BranchBound().name == "branch-bound"
        assert BranchBound(500).name == "branch-bound(nodes=500)"
        assert BranchBound().deterministic

    def test_validation(self):
        with pytest.raises(ValueError):
            BranchBound(0)
        with pytest.raises(ValueError):
            strategy_for_name("branch-bound:0")

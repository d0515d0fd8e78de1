"""Tests for the pluggable search strategies."""

import numpy as np
import pytest

from repro.profiling.conflict_profile import profile_blocks
from repro.search.families import BitSelectFamily, PermutationFamily
from repro.search.hill_climb import hill_climb_front
from repro.search.strategies import (
    Annealing,
    BeamSearch,
    FirstImprovement,
    SearchStrategy,
    SteepestDescent,
    strategy_for_name,
)
from tests.oracles.search import hill_climb_scalar


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


class TestResolution:
    def test_spec_strings(self):
        assert isinstance(strategy_for_name("steepest"), SteepestDescent)
        assert isinstance(strategy_for_name("first"), FirstImprovement)
        assert isinstance(strategy_for_name("first-improvement"), FirstImprovement)
        assert strategy_for_name("beam").width == 4
        assert strategy_for_name("beam:8").width == 8
        assert strategy_for_name("beam(2)").width == 2
        anneal = strategy_for_name("anneal:500:7")
        assert anneal.iterations == 500 and anneal.seed == 7

    def test_instances_pass_through(self):
        strategy = BeamSearch(3)
        assert strategy_for_name(strategy) is strategy

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            strategy_for_name("psychic")
        with pytest.raises(TypeError):
            strategy_for_name(42)

    def test_protocol_conformance(self):
        for strategy in (
            SteepestDescent(), FirstImprovement(), BeamSearch(), Annealing(),
        ):
            assert isinstance(strategy, SearchStrategy)

    def test_names_encode_parameters(self):
        assert BeamSearch(8).name != BeamSearch(4).name
        assert Annealing(seed=1).name != Annealing(seed=2).name

    def test_validation(self):
        with pytest.raises(ValueError):
            BeamSearch(0)
        with pytest.raises(ValueError):
            strategy_for_name("beam:0")


class TestStrategyOutcomes:
    def test_default_is_paper_steepest(self, profile):
        """The default ``"steepest"`` spec is the paper's algorithm."""
        default = strategy_for_name("steepest").search(profile, FAMILY)
        assert default.strategy_name == "steepest"
        scalar = hill_climb_scalar(profile, FAMILY)
        assert default.function == scalar.function
        assert default.history == scalar.history

    @pytest.mark.parametrize(
        "spec", ["steepest", "first-improvement", "beam:3", "anneal:1500"]
    )
    def test_results_feasible_and_improving(self, profile, spec):
        result = strategy_for_name(spec).search(profile, FAMILY)
        assert FAMILY.contains(result.function)
        assert result.function.is_full_rank
        assert result.estimated_misses <= result.start_misses
        assert result.history[0] == result.start_misses

    def test_first_improvement_descends_monotonically(self, profile):
        result = strategy_for_name("first-improvement").search(profile, FAMILY)
        for earlier, later in zip(result.history, result.history[1:]):
            assert later < earlier

    def test_beam_at_least_as_good_as_steepest(self, profile):
        """Width-1 beam follows the greedy path; wider beams dominate it."""
        steepest = strategy_for_name("steepest").search(profile, FAMILY)
        beam = strategy_for_name("beam:4").search(profile, FAMILY)
        assert beam.estimated_misses <= steepest.estimated_misses

    def test_anneal_deterministic_given_seed(self, profile):
        a = Annealing(iterations=800, seed=5).search(profile, FAMILY)
        b = Annealing(iterations=800, seed=5).search(profile, FAMILY)
        assert a.function == b.function and a.history == b.history

    def test_anneal_respects_family(self, profile):
        family = BitSelectFamily(12, 6)
        result = strategy_for_name("anneal:600").search(profile, family)
        assert family.contains(result.function)
        assert result.function.is_full_rank

    def test_max_steps_bounds_all_strategies(self, profile):
        for spec in ("steepest", "first-improvement", "beam:2", "anneal:400"):
            result = strategy_for_name(spec).search(profile, FAMILY, max_steps=2)
            assert result.steps <= 2


class TestFrontWithStrategies:
    def test_front_runs_non_point_strategies_per_start(self, profile):
        front = hill_climb_front(
            profile, FAMILY, restarts=2, seed=3, strategy="beam:2"
        )
        assert len(front) == 3
        for result in front:
            assert FAMILY.contains(result.function)
            assert result.strategy_name == "beam(2)"

    def test_front_strategy_matches_single_for_first_improvement(self, profile):
        front = hill_climb_front(profile, FAMILY, strategy="first-improvement")
        single = strategy_for_name("first-improvement").search(profile, FAMILY)
        assert front[0].function == single.function
        assert front[0].history == single.history

    def test_anneal_front_deterministic(self, profile):
        a = hill_climb_front(
            profile, FAMILY, restarts=2, seed=11, strategy="anneal:500"
        )
        b = hill_climb_front(
            profile, FAMILY, restarts=2, seed=11, strategy="anneal:500"
        )
        assert [r.function for r in a] == [r.function for r in b]

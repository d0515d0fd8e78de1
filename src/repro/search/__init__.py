"""Design-space search: families, hill climbing, exhaustive baselines."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.search.branch_bound": (
            "BranchBound",
            "branch_bound_search",
            "admissible_lower_bound",
            "exhaustive_node_count",
        ),
        "repro.search.exhaustive": ("ExhaustiveResult", "optimal_bit_select"),
        "repro.search.families": (
            "FunctionFamily",
            "GeneralXorFamily",
            "PermutationFamily",
            "BitSelectFamily",
            "family_for_name",
        ),
        "repro.search.hill_climb": (
            "SearchResult",
            "hill_climb_front",
            "hill_climb_restarts",
        ),
        "repro.search.optimal_xor": (
            "OptimalXorResult",
            "optimal_xor_function",
        ),
        "repro.search.portfolio": ("Portfolio", "DEFAULT_ZOO"),
        "repro.search.strategies": (
            "SearchStrategy",
            "SteepestDescent",
            "FirstImprovement",
            "BeamSearch",
            "Annealing",
            "strategy_for_name",
        ),
    },
)


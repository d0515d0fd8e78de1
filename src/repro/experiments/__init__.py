"""Experiment drivers: one module per paper table/figure plus ablations."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments.ablations": (
            "estimator_fidelity",
            "capacity_filter_ablation",
            "restarts_ablation",
            "strategy_comparison",
            "search_timing",
            "optimality_gap",
        ),
        "repro.experiments.counting": ("run_counting", "format_counting"),
        "repro.experiments.figure2": ("run_figure2", "format_figure2"),
        "repro.experiments.general_vs_perm": (
            "run_general_vs_perm",
            "format_general_vs_perm",
            "PAPER_AVERAGES",
        ),
        "repro.experiments.table1": (
            "run_table1",
            "format_table1",
            "PAPER_TABLE1",
        ),
        "repro.experiments.table2": (
            "run_table2",
            "format_table2",
            "PAPER_TABLE2_AVERAGES",
        ),
        "repro.experiments.miss_classification": (
            "run_miss_classification",
            "format_miss_classification",
        ),
        "repro.experiments.polynomial_baseline": (
            "run_polynomial_baseline",
            "format_polynomial_baseline",
        ),
        "repro.experiments.skewed_comparison": (
            "run_skewed_comparison",
            "format_skewed_comparison",
        ),
        "repro.experiments.table3": (
            "run_table3",
            "format_table3",
            "PAPER_TABLE3",
        ),
    },
)

"""Hardware models for reconfigurable XOR-indexing (paper Sec. 5)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.hardware.energy": (
            "EnergyModel",
            "EnergyReport",
            "indexing_energy",
        ),
        "repro.hardware.network": (
            "Selector",
            "ReconfigurableNetwork",
            "PlainBitSelectNetwork",
            "OptimizedBitSelectNetwork",
            "GeneralXorNetwork",
            "PermutationNetwork",
            "build_network",
        ),
        "repro.hardware.schematic": ("render_network", "render_selector_row"),
        "repro.hardware.switches": (
            "bit_select_switches",
            "optimized_bit_select_switches",
            "general_xor_switches",
            "permutation_switches",
            "switch_counts",
        ),
        "repro.hardware.wiring": ("WiringReport", "wiring_report"),
    },
)

"""GF(2) linear algebra substrate for XOR-indexing.

Exports the bit-vector helpers, dense matrices, canonical subspaces,
design-space counting formulas and the central
:class:`~repro.gf2.hashfn.XorHashFunction` class.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.gf2.batched": (
            "ColumnReplacementScreen",
            "high_bit_index",
            "reduce_by_basis",
        ),
        "repro.gf2.bitpack": (
            "pack_bit_planes",
            "pack_bits",
            "packed_parity_rows",
            "unpack_bits",
            "weighted_popcount",
        ),
        "repro.gf2.bitvec": (
            "bits_of",
            "dot",
            "from_bits",
            "mask",
            "parity",
            "parity_array",
            "popcount",
        ),
        "repro.gf2.counting": (
            "gaussian_binomial",
            "num_distinct_null_spaces",
            "num_full_rank_matrices",
            "num_matrices",
            "num_subspaces_total",
        ),
        "repro.gf2.hashfn": ("XorHashFunction",),
        "repro.gf2.matrix": ("GF2Matrix",),
        "repro.gf2.polynomial": (
            "poly_degree",
            "poly_mul",
            "poly_mod",
            "is_irreducible",
            "irreducible_polynomials",
            "polynomial_hash_function",
        ),
        "repro.gf2.spaces": ("Subspace", "all_subspace_bases", "rref_basis"),
    },
)

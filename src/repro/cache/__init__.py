"""Cache-simulator substrate: geometries, indexing policies, engines."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.cache.classify": ("MissBreakdown", "classify_misses"),
        "repro.cache.direct_mapped": (
            "simulate_direct_mapped",
            "simulate_direct_mapped_scalar",
            "miss_vector_direct_mapped",
        ),
        "repro.cache.engine": (
            "simulate",
            "simulate_banks",
            "simulate_capacity",
            "evaluate_many",
        ),
        "repro.cache.fully_assoc": (
            "simulate_fully_associative",
            "simulate_fully_associative_scalar",
        ),
        "repro.cache.geometry": (
            "CacheGeometry",
            "PAPER_GEOMETRIES",
            "PAPER_HASHED_BITS",
        ),
        "repro.cache.indexing": (
            "IndexingPolicy",
            "ModuloIndexing",
            "BitSelectIndexing",
            "XorIndexing",
        ),
        "repro.cache.set_assoc": (
            "simulate_set_associative",
            "simulate_set_associative_scalar",
        ),
        "repro.cache.skewed": ("simulate_skewed", "simulate_skewed_scalar"),
        "repro.cache.stats": ("CacheStats",),
    },
)

"""Cache-simulator substrate: geometries, indexing policies, the engine."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.cache.classify": ("MissBreakdown", "classify_misses"),
        "repro.cache.engine": (
            "simulate",
            "simulate_banks",
            "simulate_capacity",
            "evaluate_many",
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
        "repro.cache.stats": ("CacheStats",),
    },
)

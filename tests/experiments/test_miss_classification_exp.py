"""Tests for the miss-classification extension driver."""

import pytest

from repro.api import ExperimentSpec, GeometrySpec, Session, TraceSpec
from repro.cache.classify import classify_misses
from repro.cache.geometry import CacheGeometry
from repro.experiments.miss_classification import (
    format_miss_classification,
    run_miss_classification,
)
from repro.pipeline.artifact_cache import cache_events
from repro.pipeline.context import PipelineContext
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def rows():
    return run_miss_classification(
        scale="tiny", cache_bytes=1024, benchmarks=("dijkstra", "susan")
    )


class TestMissClassification:
    def test_breakdown_sums(self, rows):
        for r in rows:
            b = r.breakdown
            assert b.compulsory + b.capacity + b.conflict == b.total

    def test_removal_bounded_when_no_capacity_misses(self, rows):
        """With zero capacity component the conflict pool is a strict
        upper bound; with one, hashing may exceed it (LRU pathologies)."""
        for r in rows:
            if r.breakdown.capacity == 0:
                assert r.removed_percent <= r.conflict_percent + 1e-6

    def test_format(self, rows):
        text = format_miss_classification(rows)
        assert "conflict %" in text and "dijkstra" in text


class TestCachedStages:
    def test_breakdown_matches_classify_misses(self, rows):
        for r in rows:
            trace = get_workload("mibench", r.benchmark, "tiny", 0).data
            assert r.breakdown == classify_misses(
                trace.block_addresses(4), CacheGeometry.direct_mapped(1024)
            )

    def test_shares_the_optimization_record(self, tmp_path):
        """The 2-in column is the record ``Session.optimize`` (and so a
        campaign or serve) stores for the same cell."""
        spec = ExperimentSpec(
            TraceSpec("mibench", "dijkstra", scale="tiny"), GeometrySpec(cache_bytes=1024)
        )
        with Session(cache_dir=tmp_path) as session:
            optimized = session.optimize(spec)
        with cache_events() as events:
            (row,) = run_miss_classification(
                scale="tiny",
                cache_bytes=1024,
                benchmarks=("dijkstra",),
                context=PipelineContext(tmp_path),
            )
        assert events["optimization"] == {"hits": 1}
        assert row.removed_percent == optimized.removed_percent

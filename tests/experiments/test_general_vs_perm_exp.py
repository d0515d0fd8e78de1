"""Tests for the Sec. 6 general-vs-permutation experiment driver."""

import pytest

from repro.experiments.general_vs_perm import (
    format_general_vs_perm,
    run_general_vs_perm,
)
from repro.pipeline import PipelineContext


@pytest.fixture(scope="module")
def results():
    return run_general_vs_perm(
        scale="tiny", cache_sizes=(1024,), benchmarks=("dijkstra", "susan")
    )


class TestGeneralVsPerm:
    def test_structure(self, results):
        assert len(results) == 1
        r = results[0]
        assert set(r.general_removed) == {"dijkstra", "susan"}
        assert set(r.permutation_removed) == {"dijkstra", "susan"}

    def test_paper_claim_small_gap(self, results):
        """Restricting to permutation-based functions costs little
        (paper: < 2.5 points at every size)."""
        for r in results:
            assert abs(r.gap) < 10.0

    def test_format(self, results):
        text = format_general_vs_perm(results)
        assert "1KB" in text and "permutation" in text

    def test_context_serves_warm_rerun(self, tmp_path, results):
        kwargs = dict(scale="tiny", cache_sizes=(1024,), benchmarks=("dijkstra", "susan"))
        cold = run_general_vs_perm(context=PipelineContext(tmp_path), **kwargs)
        warm_context = PipelineContext(tmp_path)
        warm = run_general_vs_perm(context=warm_context, **kwargs)
        assert warm == cold == results
        stats = warm_context.cache_stats()
        assert sum(kind["stores"] for kind in stats.values()) == 0

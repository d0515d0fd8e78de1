"""Tests for the Table 3 driver (reduced scale)."""

import pytest

from repro.experiments.table3 import (
    COLUMNS,
    average_row,
    format_table3,
    run_table3,
)
from repro.api import ExperimentSpec, GeometrySpec, SearchSpec, Session, TraceSpec
from repro.pipeline import PipelineContext
from repro.pipeline.artifact_cache import cache_events

_BENCHMARKS = ("blit", "des", "qurt")


@pytest.fixture(scope="module")
def rows():
    return run_table3(scale="tiny", benchmarks=_BENCHMARKS)


class TestTable3Driver:
    def test_all_columns_present(self, rows):
        for row in rows:
            assert set(row.removed_percent) == set(COLUMNS)

    def test_qurt_has_nothing_to_fix(self, rows):
        """Table 3 shows qurt at 0.0 everywhere: no conflicts to remove."""
        qurt = next(r for r in rows if r.benchmark == "qurt")
        for column in ("opt", "1-in", "2-in", "4-in", "16-in"):
            assert abs(qurt.removed_percent[column]) < 1.0

    def test_average(self, rows):
        avg = average_row(rows)
        assert set(avg) == set(COLUMNS)

    def test_format(self, rows):
        text = format_table3(rows)
        assert "blit" in text and "average" in text and "FA" in text


def _files(root):
    return sorted(path for path in root.rglob("*") if path.is_file())


class TestExplicitContext:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_rerun_stores_nothing(self, tmp_path, monkeypatch, workers):
        """Rows read and write the handed context's cache; a warm rerun
        is served from it, stores nothing, returns equal rows and leaves
        the context open for its owner."""
        kwargs = dict(benchmarks=("qurt", "fir"), scale="tiny", workers=workers)
        cold = run_table3(context=PipelineContext(tmp_path), **kwargs)
        written = _files(tmp_path)
        assert written
        closed = []
        monkeypatch.setattr(PipelineContext, "close", lambda self: closed.append(self))
        context = PipelineContext(tmp_path)
        warm = run_table3(context=context, **kwargs)
        assert closed == []
        assert warm == cold == run_table3(**kwargs)
        assert _files(tmp_path) == written
        if workers == 1:
            stats = context.cache_stats()
            assert sum(kind["stores"] for kind in stats.values()) == 0
            assert sum(kind["hits"] for kind in stats.values()) > 0


class TestSharedStages:
    def test_heuristic_columns_replay_a_campaign(self, tmp_path):
        """The 1-in…16-in cells are campaign cells: after a campaign of
        the same rows only the opt and FA columns compute, and those
        miss no optimization or profile record."""
        benchmarks = ("qurt", "fir")
        specs = [
            ExperimentSpec(
                trace=TraceSpec("powerstone", benchmark, scale="tiny"),
                geometry=GeometrySpec(cache_bytes=4096),
                search=SearchSpec(family=family),
            )
            for benchmark in benchmarks
            for family in ("1-in", "2-in", "4-in", "16-in")
        ]
        with Session(cache_dir=tmp_path, workers=1) as session:
            session.campaign(specs)
        with cache_events() as events:
            rows = run_table3(
                scale="tiny", benchmarks=benchmarks, context=PipelineContext(tmp_path)
            )
        assert [row.benchmark for row in rows] == list(benchmarks)
        assert events["optimization"] == {"hits": 4 * len(rows)}
        assert events["profile"] == {"hits": len(rows)}
        # Per row at most the opt function's stats and the FA baseline.
        assert len(rows) <= events["stats"]["misses"] <= 2 * len(rows)
        assert events["optimal-bit-select"]["misses"] == len(rows)

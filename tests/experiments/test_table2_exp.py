"""Tests for the Table 2 driver (reduced scale)."""

import pytest

from repro.experiments.table2 import format_table2, run_table2
from repro.pipeline import PipelineContext

_BENCHMARKS = ("fft", "rijndael")


@pytest.fixture(scope="module")
def small_result():
    return run_table2(
        kind="data",
        scale="tiny",
        cache_sizes=(1024, 4096),
        benchmarks=_BENCHMARKS,
    )


class TestTable2Driver:
    def test_structure(self, small_result):
        assert len(small_result.rows) == len(_BENCHMARKS) * 2
        for row in small_result.rows:
            assert set(row.removed_percent) == {"2-in", "4-in", "16-in"}
            assert row.base_misses_per_kuop >= 0

    def test_removed_is_exact_simulation(self, small_result):
        """The reported % must equal the ratio of simulated miss counts."""
        for row in small_result.rows:
            for family, detail in row.details.items():
                expected = 100.0 * (
                    detail.baseline.misses - detail.optimized.misses
                ) / detail.baseline.misses if detail.baseline.misses else 0.0
                assert row.removed_percent[family] == pytest.approx(expected)

    def test_fan_in_budgets_land_close(self, small_result):
        """The paper's Table 2 message: extra fan-in buys only a few
        percent.  (Strict dominance does not hold — hill climbing in the
        larger family can stop in a different local optimum.)"""
        for row in small_result.rows:
            est2 = row.details["2-in"].search.estimated_misses
            est16 = row.details["16-in"].search.estimated_misses
            start = row.details["2-in"].search.start_misses
            if start:
                assert abs(est16 - est2) / start < 0.15

    def test_averages(self, small_result):
        avg = small_result.average_removed(1024, "2-in")
        values = [r.removed_percent["2-in"] for r in small_result.rows_for(1024)]
        assert avg == pytest.approx(sum(values) / len(values))

    def test_format(self, small_result):
        text = format_table2(small_result)
        assert "fft" in text and "average" in text and "1KB base" in text

    def test_instruction_kind_runs(self):
        result = run_table2(
            kind="instruction",
            scale="tiny",
            cache_sizes=(4096,),
            benchmarks=("dijkstra",),
        )
        assert len(result.rows) == 1

    def test_context_supplies_cache_dir(self, tmp_path):
        kwargs = dict(scale="tiny", cache_sizes=(1024,), benchmarks=("fft",))
        context = PipelineContext(tmp_path)
        cold = run_table2(context=context, **kwargs)
        assert (tmp_path / "optimization").is_dir()
        warm = run_table2(context=context, **kwargs)
        assert warm.rows[0].removed_percent == cold.rows[0].removed_percent

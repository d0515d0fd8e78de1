"""Tests for the polynomial-baseline extension driver."""

import pytest

from repro.experiments.polynomial_baseline import (
    format_polynomial_baseline,
    run_polynomial_baseline,
)


@pytest.fixture(scope="module")
def rows():
    return run_polynomial_baseline(scale="tiny", benchmarks=("dijkstra", "fft"))


class TestPolynomialBaseline:
    def test_structure(self, rows):
        assert [r.benchmark for r in rows] == ["dijkstra", "fft"]

    def test_best_poly_at_least_fixed(self, rows):
        for r in rows:
            assert r.best_poly_removed >= r.fixed_poly_removed

    def test_format(self, rows):
        text = format_polynomial_baseline(rows)
        assert "fixed poly" in text and "app-specific" in text and "average" in text

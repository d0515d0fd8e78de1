"""Tests for the parallel campaign runner."""

import json
from dataclasses import replace

import pytest

from repro.api import ExperimentSpec, GeometrySpec, SearchSpec, TraceSpec, expand_grid
from repro.pipeline import PipelineContext, format_campaign, run_campaign
from repro.pipeline.campaign import derive_seed, fault_key, map_with_context

BENCHMARKS = ("qurt", "fir")


def tiny_grid(families=("1-in", "2-in")):
    return expand_grid(
        {
            "suite": "powerstone",
            "benchmarks": BENCHMARKS,
            "cache_bytes": [1024],
            "families": families,
            "scale": "tiny",
        }
    )


def fir_cell(strategy="steepest", cache_bytes=1024, associativity=1):
    return ExperimentSpec(
        trace=TraceSpec("powerstone", "fir", scale="tiny"),
        geometry=GeometrySpec(cache_bytes=cache_bytes, associativity=associativity),
        search=SearchSpec(strategy=strategy),
    )


def rows_key(result):
    return [
        (r.spec, r.base_misses, r.optimized_misses, r.removed_percent)
        for r in result.rows
    ]


class TestGrid:
    def test_cross_product(self):
        specs = expand_grid(
            {
                "suite": "powerstone",
                "benchmarks": BENCHMARKS,
                "kinds": ["data", "instruction"],
                "cache_bytes": [1024, 4096],
                "families": ["1-in", "2-in", "4-in"],
                "scale": "tiny",
            }
        )
        assert len(specs) == 2 * 2 * 2 * 3
        assert len(set(specs)) == len(specs)  # specs are hashable and unique

    def test_default_benchmarks_cover_suite(self):
        from repro.workloads.registry import workload_names

        specs = expand_grid({"suite": "powerstone", "cache_bytes": [1024]})
        assert {s.trace.benchmark for s in specs} == set(workload_names("powerstone"))


class TestStrategies:
    def test_expand_grid_propagates_strategy(self):
        specs = expand_grid(
            {
                "suite": "powerstone", "benchmarks": BENCHMARKS,
                "cache_bytes": [1024], "scale": "tiny", "strategies": ["beam:2"],
            }
        )
        assert all(spec.search.strategy == "beam:2" for spec in specs)

    def test_strategy_part_of_seed_identity(self):
        assert derive_seed(fir_cell(), 0) != derive_seed(fir_cell("beam:2"), 0)

    def test_campaign_runs_non_default_strategy(self, tmp_path):
        specs = expand_grid(
            {
                "suite": "powerstone", "benchmarks": ["qurt"], "cache_bytes": [1024],
                "scale": "tiny", "strategies": ["first-improvement"],
            }
        )
        result = run_campaign(specs, cache_dir=tmp_path, workers=1)
        assert len(result.rows) == 1
        payload = result.to_json()
        assert payload["rows"][0]["spec"]["search"]["strategy"] == "first-improvement"


class TestSeeds:
    def test_derived_seed_deterministic(self):
        assert derive_seed(fir_cell(), 0) == derive_seed(fir_cell(), 0)
        assert derive_seed(fir_cell(), 0) != derive_seed(fir_cell(), 1)

    def test_derived_seed_differs_per_task(self):
        seeds = {derive_seed(spec, 0) for spec in tiny_grid()}
        assert len(seeds) == len(tiny_grid())

    # Literal values: derived seeds key cached artifacts and goldens, and
    # fault keys decide which cells a seeded fault plan hits, so both
    # identity strings must never drift.
    @pytest.mark.parametrize(
        "cell, seed0, seed3, key",
        [
            (
                fir_cell(),
                2072293436,
                2072293439,
                "powerstone/fir/data/tiny/1024/4/2-in/16/0/steepest/a1",
            ),
            (
                fir_cell(strategy="beam:4"),
                566583825,
                566583828,
                "powerstone/fir/data/tiny/1024/4/2-in/16/0/beam:4/a1",
            ),
            (
                fir_cell(cache_bytes=2048, associativity=2),
                1252567422,
                1252567425,
                "powerstone/fir/data/tiny/2048/4/2-in/16/0/steepest/a2",
            ),
        ],
        ids=["steepest", "beam", "associativity-2"],
    )
    def test_pinned_identity(self, cell, seed0, seed3, key):
        assert derive_seed(cell, 0) == seed0
        assert derive_seed(cell, 3) == seed3
        assert fault_key(cell) == key

    def test_identity_ignores_execution_and_search_seed(self):
        cell = fir_cell()
        other = replace(cell, search=replace(cell.search, seed=5)).with_execution(
            workers=2, retries=1
        )
        assert derive_seed(other, 0) == derive_seed(cell, 0)
        assert fault_key(other) == fault_key(cell)


class TestRunCampaign:
    def test_serial_and_parallel_agree(self, tmp_path):
        specs = tiny_grid()
        serial = run_campaign(specs, workers=1)
        parallel = run_campaign(
            specs, cache_dir=tmp_path / "parallel-cache", workers=2
        )
        assert serial.workers == 1 and parallel.workers == 2
        assert rows_key(serial) == rows_key(parallel)

    def test_warm_replay_is_fully_cached_and_identical(self, tmp_path):
        specs = tiny_grid()
        cold = run_campaign(specs, cache_dir=tmp_path, workers=1)
        warm = run_campaign(specs, cache_dir=tmp_path, workers=1)
        assert not cold.fully_cached and cold.cache_totals()["stores"] > 0
        assert warm.fully_cached
        assert warm.cache_totals()["hits"] > 0
        assert rows_key(warm) == rows_key(cold)

    def test_row_order_follows_task_order(self, tmp_path):
        specs = tiny_grid()
        result = run_campaign(specs, cache_dir=tmp_path, workers=2)
        assert [r.spec for r in result.rows] == specs

    def test_keep_details_attaches_results(self, tmp_path):
        specs = tiny_grid(families=("2-in",))
        result = run_campaign(specs, cache_dir=tmp_path, workers=1, keep_details=True)
        for row in result.rows:
            detail = row.result
            assert detail is not None
            assert detail.optimized.misses == row.optimized_misses
            assert detail.removed_percent == row.removed_percent

    def test_in_memory_run_is_never_fully_cached(self):
        """Without an artifact cache every task computes from scratch,
        so the run must not report itself as a cached replay."""
        result = run_campaign(tiny_grid(families=("2-in",)), workers=1)
        assert result.cache_dir is None
        assert not result.fully_cached
        assert not result.to_json()["fully_cached"]

    def test_parallel_in_memory_run_shares_artifacts(self):
        """A no-cache parallel run uses a run-scoped temporary artifact
        dir so per-family tasks share profiles, but still reports an
        in-memory run and matches the serial results."""
        specs = tiny_grid()
        parallel = run_campaign(specs, workers=2)
        assert parallel.cache_dir is None and not parallel.fully_cached
        assert rows_key(parallel) == rows_key(run_campaign(specs, workers=1))
        # The ephemeral dir was used (counters exist) and cleaned up
        # (nothing under the default location was touched).
        assert parallel.cache_totals()["stores"] > 0

    def test_ambient_context_supplies_cache_dir(self, tmp_path):
        specs = tiny_grid(families=("2-in",))
        with PipelineContext(tmp_path).activate():
            result = run_campaign(specs, workers=1)
        assert result.cache_dir == str(tmp_path)
        warm = run_campaign(specs, cache_dir=tmp_path, workers=1)
        assert warm.fully_cached

    def test_to_json_is_serializable(self, tmp_path):
        result = run_campaign(tiny_grid(families=("2-in",)), workers=1)
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["schema"] == "repro-report/v1"
        assert payload["kind"] == "campaign"
        assert payload["workers"] == 1
        assert len(payload["rows"]) == 2
        row = payload["rows"][0]
        assert {"spec", "removed_percent", "search_seed"} <= set(row)
        # Rows echo their spec, so the report is a replayable input.
        assert row["spec"]["trace"]["suite"] == "powerstone"
        assert row["spec"]["search"]["seed"] == row["search_seed"]

    def test_report_round_trips(self, tmp_path):
        from repro.pipeline.campaign import CampaignResult

        result = run_campaign(tiny_grid(families=("2-in",)), workers=1)
        payload = json.loads(json.dumps(result.to_json()))
        rebuilt = CampaignResult.from_json(payload)
        # The rebuilt rows carry the spec (and seed) the run used;
        # everything else round-trips exactly.
        for orig, new in zip(result.rows, rebuilt.rows):
            assert new.spec == orig.spec
            assert (new.base_misses, new.optimized_misses, new.removed_percent) == (
                orig.base_misses, orig.optimized_misses, orig.removed_percent
            )
            assert new.search_seed == orig.search_seed

    def test_format_campaign(self):
        result = run_campaign(tiny_grid(families=("2-in",)), workers=1)
        text = format_campaign(result)
        assert "powerstone/fir" in text and "removed %" in text
        assert "cache:" in text


class TestMapWithContext:
    def test_preserves_order_serial(self):
        assert map_with_context(_double, [3, 1, 2], workers=1) == [6, 2, 4]

    def test_preserves_order_parallel(self, tmp_path):
        assert map_with_context(
            _double, [3, 1, 2], cache_dir=tmp_path, workers=2
        ) == [6, 2, 4]

    def test_context_is_active_inside(self, tmp_path):
        roots = map_with_context(_cache_root, [0], cache_dir=tmp_path, workers=1)
        assert roots == [str(tmp_path)]

    def test_explicit_cache_dir_beats_ambient_serially(self, tmp_path):
        """A serial map must honor an explicit cache_dir even under an
        ambient session backed elsewhere (same rule as workers > 1)."""
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        with PipelineContext(dir_a).activate():
            roots = map_with_context(_cache_root, [0], cache_dir=dir_b, workers=1)
        assert roots == [str(dir_b)]


def _double(x):
    return 2 * x


def _cache_root(_):
    from repro.pipeline.runtime import current_context

    context = current_context()
    return str(context.cache.root) if context.cache is not None else None

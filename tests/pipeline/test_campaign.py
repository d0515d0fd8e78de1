"""Tests for the parallel campaign runner."""

import json
import os
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    GeometrySpec,
    SearchSpec,
    TraceSpec,
    expand_grid,
)
from repro.pipeline import PipelineContext, format_campaign, run_campaign
from repro.pipeline.campaign import derive_seed, fault_key
from repro.pipeline.faults import use_faults
from repro.pipeline.storage import STORAGE_ENV, SqliteStorage

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
        result = run_campaign(
            specs, PipelineContext(tmp_path), ExecutionSpec(workers=1)
        )
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
        serial = run_campaign(specs, execution=ExecutionSpec(workers=1))
        parallel = run_campaign(
            specs,
            PipelineContext(tmp_path / "parallel-cache"),
            ExecutionSpec(workers=2),
        )
        assert serial.workers == 1 and parallel.workers == 2
        assert rows_key(serial) == rows_key(parallel)

    def test_warm_replay_is_fully_cached_and_identical(self, tmp_path):
        specs = tiny_grid()
        cold = run_campaign(specs, PipelineContext(tmp_path), ExecutionSpec(workers=1))
        warm = run_campaign(specs, PipelineContext(tmp_path), ExecutionSpec(workers=1))
        assert not cold.fully_cached and cold.cache_totals()["stores"] > 0
        assert warm.fully_cached
        assert warm.cache_totals()["hits"] > 0
        assert rows_key(warm) == rows_key(cold)

    def test_row_order_follows_task_order(self, tmp_path):
        specs = tiny_grid()
        result = run_campaign(
            specs, PipelineContext(tmp_path), ExecutionSpec(workers=2)
        )
        assert [r.spec for r in result.rows] == specs

    def test_keep_details_attaches_results(self, tmp_path):
        specs = tiny_grid(families=("2-in",))
        result = run_campaign(
            specs,
            PipelineContext(tmp_path),
            ExecutionSpec(workers=1),
            keep_details=True,
        )
        for row in result.rows:
            detail = row.result
            assert detail is not None
            assert detail.optimized.misses == row.optimized_misses
            assert detail.removed_percent == row.removed_percent

    def test_in_memory_run_is_never_fully_cached(self):
        """Without an artifact cache every task computes from scratch,
        so the run must not report itself as a cached replay."""
        result = run_campaign(
            tiny_grid(families=("2-in",)), execution=ExecutionSpec(workers=1)
        )
        assert result.cache_dir is None
        assert not result.fully_cached
        assert not result.to_json()["fully_cached"]

    def test_failed_cells_are_never_fully_cached(self, tmp_path):
        """Cells that failed under ``on_error="skip"`` replayed nothing,
        although they counted no miss and no store."""
        with use_faults("campaign.task:error:p=1:seed=1"):
            result = run_campaign(
                tiny_grid(families=("2-in",)),
                PipelineContext(tmp_path),
                ExecutionSpec(workers=1, on_error="skip"),
            )
        assert [row.status for row in result.rows] == ["failed", "failed"]
        assert result.cache_totals() == {"hits": 0, "misses": 0, "stores": 0}
        assert not result.fully_cached

    def test_expect_cached_fails_when_every_cell_failed(self, tmp_path, capsys):
        argv = [
            "campaign", "--suite", "powerstone", "--benchmarks", "qurt",
            "--cache-kb", "1", "--families", "2-in", "--scale", "tiny",
            "--workers", "1", "--cache-dir", str(tmp_path),
            "--on-error", "skip", "--expect-cached",
        ]
        with use_faults("campaign.task:error:p=1:seed=1"):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "1 cell(s) failed: powerstone/qurt" in err

    def test_parallel_in_memory_run_shares_artifacts(self):
        """A no-cache parallel run uses a run-scoped temporary artifact
        dir so per-family tasks share profiles, but still reports an
        in-memory run and matches the serial results."""
        specs = tiny_grid()
        parallel = run_campaign(specs, execution=ExecutionSpec(workers=2))
        assert parallel.cache_dir is None and not parallel.fully_cached
        assert rows_key(parallel) == rows_key(run_campaign(
            specs, execution=ExecutionSpec(workers=1))
        )
        # The ephemeral dir was used (counters exist) and cleaned up
        # (nothing under the default location was touched).
        assert parallel.cache_totals()["stores"] > 0

    def test_campaign_borrows_the_callers_storage(self, tmp_path, monkeypatch):
        """A campaign runs on the caller's cache: it opens no storage of
        its own and closes none, so the caller's close releases the one
        backend."""
        opens, closes = [], []
        original_init, original_close = SqliteStorage.__init__, SqliteStorage.close

        def counting_init(self, *args, **kwargs):
            opens.append(self)
            original_init(self, *args, **kwargs)

        def counting_close(self):
            closes.append(self)
            original_close(self)

        monkeypatch.setattr(SqliteStorage, "__init__", counting_init)
        monkeypatch.setattr(SqliteStorage, "close", counting_close)
        context = PipelineContext(tmp_path, storage="sqlite")
        specs = tiny_grid(families=("2-in",))
        for _ in range(3):
            run_campaign(specs, context, ExecutionSpec(workers=1))
        assert len(opens) == 1 and closes == []
        context.close()
        assert closes == opens

    def test_to_json_is_serializable(self, tmp_path):
        result = run_campaign(
            tiny_grid(families=("2-in",)), execution=ExecutionSpec(workers=1)
        )
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

        result = run_campaign(
            tiny_grid(families=("2-in",)), execution=ExecutionSpec(workers=1)
        )
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
        result = run_campaign(
            tiny_grid(families=("2-in",)), execution=ExecutionSpec(workers=1)
        )
        text = format_campaign(result)
        assert "powerstone/fir" in text and "removed %" in text
        assert "cache:" in text


def _profile_keys(trace, capacities_bytes, block_size=4, n=16):
    """Profile artifact keys exactly as one-capacity-per-call runs wrote
    them (the cache layout earlier campaigns left on disk)."""
    from repro.pipeline.artifact_cache import stable_key

    return {
        stable_key(
            "profile",
            {
                "trace": trace.digest,
                "block_size": block_size,
                "capacity_blocks": size // block_size,
                "n": n,
            },
        )
        for size in capacities_bytes
    }


class TestMultiCapacityProfiling:
    """A grid's cache sizes of one trace share a single profiling pass."""

    SIZES = (1024, 4096, 16384)
    SHARD_SIZE = 5000

    def _grid(self, sizes):
        return expand_grid(
            {
                "suite": "powerstone",
                "benchmarks": ["fir"],
                "cache_bytes": list(sizes),
                "families": ["1-in", "2-in"],
                "scale": "tiny",
            }
        )

    def _count_passes(self, monkeypatch):
        # The profile driver imports the kernel when it runs a pass.
        import repro.profiling.conflict_profile as driver_module

        calls = []
        real = driver_module.profile_blocks

        def counting(blocks, capacity_blocks, n, *args, **kwargs):
            others = set(kwargs.get("siblings") or ()) - {capacity_blocks}
            calls.append((capacity_blocks, sorted(others)))
            return real(blocks, capacity_blocks, n, *args, **kwargs)

        monkeypatch.setattr(driver_module, "profile_blocks", counting)
        return calls

    def test_one_pass_stores_every_capacity_under_its_key(self, tmp_path, monkeypatch):
        calls = self._count_passes(monkeypatch)
        specs = self._grid(self.SIZES)
        result = run_campaign(
            specs, PipelineContext(tmp_path), ExecutionSpec(workers=1)
        )
        assert calls == [(4096, [256, 1024])]
        trace = specs[0].trace.resolve()
        stored = {path.stem for path in (tmp_path / "profile").rglob("*.npz")}
        assert stored == _profile_keys(trace, self.SIZES)
        # The same totals a one-pass-per-capacity run reports: each
        # profile is one miss and one store, wherever it is computed.
        assert result.cache_totals() == {"hits": 0, "misses": 18, "stores": 18}
        per_row = [row.cache_stats.get("profile", {}) for row in result.rows]
        assert per_row[0] == {"misses": 3, "stores": 3}
        assert all(not stats for stats in per_row[1:])

    def test_rows_match_single_capacity_grids(self):
        serial = ExecutionSpec(workers=1)
        multi = run_campaign(self._grid(self.SIZES), execution=serial)
        singles = [
            run_campaign(self._grid([size]), execution=serial) for size in self.SIZES
        ]
        assert rows_key(multi) == [key for single in singles for key in rows_key(single)]

    def test_warm_replay_loads_each_capacity(self, tmp_path, monkeypatch):
        specs = self._grid(self.SIZES)
        run_campaign(specs, PipelineContext(tmp_path), ExecutionSpec(workers=1))
        calls = self._count_passes(monkeypatch)
        warm = run_campaign(specs, PipelineContext(tmp_path), ExecutionSpec(workers=1))
        assert calls == [] and warm.fully_cached

    def test_single_capacity_grid_profiles_only_its_capacity(
        self, tmp_path, monkeypatch
    ):
        calls = self._count_passes(monkeypatch)
        specs = self._grid([4096])
        run_campaign(specs, PipelineContext(tmp_path), ExecutionSpec(workers=1))
        assert calls == [(1024, [])]
        stored = {path.stem for path in (tmp_path / "profile").rglob("*.npz")}
        assert stored == _profile_keys(specs[0].trace.resolve(), [4096])

    def test_cached_sibling_is_not_recomputed(self, tmp_path, monkeypatch):
        run_campaign(
            self._grid([4096]), PipelineContext(tmp_path), ExecutionSpec(workers=1)
        )
        calls = self._count_passes(monkeypatch)
        run_campaign(
            self._grid(self.SIZES), PipelineContext(tmp_path), ExecutionSpec(workers=1)
        )
        assert calls == [(4096, [256])]

    def test_parallel_rows_match_serial(self, tmp_path):
        specs = self._grid(self.SIZES)
        parallel = run_campaign(
            specs, PipelineContext(tmp_path), ExecutionSpec(workers=2)
        )
        assert rows_key(parallel) == rows_key(run_campaign(
            specs, execution=ExecutionSpec(workers=1))
        )
        stored = {path.stem for path in (tmp_path / "profile").rglob("*.npz")}
        assert stored == _profile_keys(specs[0].trace.resolve(), self.SIZES)

    def test_sharded_profile_with_capacities(self, tmp_path):
        spec = self._grid([1024])[0]
        trace = spec.trace.resolve()
        geometry = spec.geometry.resolve()
        plain = PipelineContext()
        expected = [
            plain.profile(trace, replace(geometry, size_bytes=c * 4), 8)
            for c in (geometry.num_blocks, 64)
        ]
        context = PipelineContext(tmp_path)
        sharded = context.profile(
            trace, geometry, 8, shard_size=600, capacities=(64,)
        )
        assert sharded.digest == expected[0].digest
        small = context.profile(trace, replace(geometry, size_bytes=64 * 4), 8)
        assert small.digest == expected[1].digest
        stored = {path.stem for path in (tmp_path / "profile").rglob("*.npz")}
        assert stored == _profile_keys(trace, [1024, 256], n=8)
        shards = -(-len(trace) // 600)
        assert len(list((tmp_path / "shard-profile").rglob("*.npz"))) == 2 * shards

    def test_sharded_grid_matches_unsharded(self, tmp_path, monkeypatch):
        specs = self._grid(self.SIZES)
        unsharded = run_campaign(specs, execution=ExecutionSpec(workers=1))
        calls = self._count_passes(monkeypatch)
        sharded = run_campaign(
            specs,
            PipelineContext(tmp_path),
            ExecutionSpec(workers=1, shard_size=self.SHARD_SIZE),
        )
        assert rows_key(sharded) == rows_key(unsharded)
        trace = specs[0].trace.resolve()
        shards = -(-len(trace) // self.SHARD_SIZE)
        assert shards > 1
        # One pass per shard for the whole profile group.
        assert calls == [(4096, [256, 1024])] * shards
        assert len(list((tmp_path / "shard-profile").rglob("*.npz"))) == (
            shards * len(self.SIZES)
        )
        stored = {path.stem for path in (tmp_path / "profile").rglob("*.npz")}
        assert stored == _profile_keys(trace, self.SIZES)
        warm = run_campaign(specs, PipelineContext(tmp_path), ExecutionSpec(workers=1))
        assert rows_key(warm) == rows_key(unsharded) and warm.fully_cached

    def test_session_campaign_honours_shard_size(self, tmp_path, monkeypatch):
        from repro.api import Session

        grid = self._grid(self.SIZES)
        unsharded = run_campaign(grid, execution=ExecutionSpec(workers=1))
        specs = [
            replace(spec, execution=ExecutionSpec(shard_size=self.SHARD_SIZE))
            for spec in grid
        ]
        calls = self._count_passes(monkeypatch)
        result = Session(cache_dir=tmp_path, workers=1).campaign(specs)
        assert rows_key(result) == rows_key(unsharded)
        assert len(calls) == -(-len(grid[0].trace.resolve()) // self.SHARD_SIZE)
        assert (tmp_path / "shard-profile").is_dir()


class TestMap:
    """``PipelineContext.map`` runs ``task(context, item)`` in item
    order: serially on the context itself, else on one context per
    pool process, opened on the caller's cache root and storage."""

    def test_preserves_order_serial(self, tmp_path):
        outcomes = PipelineContext(tmp_path).map(_double_with_root, [3, 1, 2])
        root = str(tmp_path)
        assert [o.value for o in outcomes] == [(6, root), (2, root), (4, root)]

    def test_preserves_order_parallel(self, tmp_path):
        outcomes = PipelineContext(tmp_path).map(
            _double_with_root, [3, 1, 2], workers=2
        )
        root = str(tmp_path)
        assert [o.value for o in outcomes] == [(6, root), (2, root), (4, root)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_serial_run_uses_self(self, tmp_path, workers):
        """One worker, or one item whatever the worker count, runs in
        process on the context itself."""
        context = PipelineContext(tmp_path)
        items = [1, 2] if workers == 1 else [1]
        outcomes = context.map(_context_of, items, workers=workers)
        assert all(outcome.value is context for outcome in outcomes)

    def test_pool_workers_open_one_context_each(self, tmp_path, monkeypatch):
        # Pool workers inherit the environment, so only the forwarded
        # storage name can make them open sqlite here.
        monkeypatch.setenv(STORAGE_ENV, "local")
        context = PipelineContext(tmp_path, storage="sqlite")
        outcomes = context.map(_worker_identity, range(6), workers=2)
        contexts: dict[int, set[int]] = {}
        for outcome in outcomes:
            pid, context_id, root, storage = outcome.value
            assert (root, storage) == (str(tmp_path), "sqlite")
            contexts.setdefault(pid, set()).add(context_id)
        assert os.getpid() not in contexts
        assert all(len(ids) == 1 for ids in contexts.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_skip_yields_a_failed_outcome(self, workers):
        outcomes = PipelineContext().map(
            _fail_on_two, [1, 2, 3], workers=workers, on_error="skip"
        )
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert [o.value for o in outcomes] == [1, None, 3]
        assert "ValueError: two" in outcomes[1].error


def _double_with_root(context, x):
    root = context.cache_root
    return 2 * x, str(root) if root is not None else None


def _context_of(context, _item):
    return context


def _worker_identity(context, _item):
    return os.getpid(), id(context), str(context.cache_root), context.cache.storage_name


def _fail_on_two(_context, x):
    if x == 2:
        raise ValueError("two")
    return x

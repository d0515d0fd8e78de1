"""The Session facade: spec execution, caching, campaigns, sweeps."""

from dataclasses import replace

import pytest

from repro.api import (
    ExperimentSpec,
    GeometrySpec,
    SearchSpec,
    Session,
    SpecError,
    TraceSpec,
    expand_grid,
)
from repro.core.optimizer import optimize_for_trace
from repro.pipeline.campaign import derive_seed


def tiny_spec(benchmark="qurt", family="2-in", **search):
    return ExperimentSpec(
        trace=TraceSpec("powerstone", benchmark, scale="tiny"),
        geometry=GeometrySpec(cache_bytes=1024),
        search=SearchSpec(family=family, **search),
    )


def recomputed(session):
    return sum(
        per_kind.get("misses", 0) + per_kind.get("stores", 0)
        for per_kind in session.cache_stats().values()
    )


class TestOptimize:
    def test_matches_legacy_entry_point(self):
        spec = tiny_spec()
        result = Session().optimize(spec)
        legacy = optimize_for_trace(
            spec.trace.resolve(), spec.geometry.resolve(), family="2-in"
        )
        assert result.hash_function == legacy.hash_function
        assert result.optimized.misses == legacy.optimized.misses
        assert result.baseline.misses == legacy.baseline.misses

    def test_attaches_spec_and_trace_digest(self):
        spec = tiny_spec()
        result = Session().optimize(spec)
        assert result.spec == spec
        assert result.trace_digest == spec.trace.resolve().digest

    def test_accepts_dict_and_path(self, tmp_path):
        spec = tiny_spec()
        by_dict = Session().optimize(spec.to_dict())
        by_path = Session().optimize(spec.save(tmp_path / "spec.toml"))
        assert by_dict.hash_function == by_path.hash_function
        assert by_dict.spec == by_path.spec == spec

    def test_identical_specs_hit_the_cache(self, tmp_path):
        """The spec digest is the artifact-cache contract: equal digests
        mean the second run recomputes nothing."""
        spec = tiny_spec()
        clone = ExperimentSpec.from_toml(spec.to_toml())
        assert clone.digest == spec.digest

        first = Session(cache_dir=tmp_path)
        cold = first.optimize(spec)
        assert recomputed(first) > 0

        second = Session(cache_dir=tmp_path)
        warm = second.optimize(clone)
        assert recomputed(second) == 0
        assert warm.hash_function == cold.hash_function
        assert warm.optimized.misses == cold.optimized.misses
        assert warm.search.history == cold.search.history

    def test_different_digest_means_different_artifacts(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.optimize(tiny_spec(family="2-in"))
        before = recomputed(session)
        other = tiny_spec(family="4-in")
        assert other.digest != tiny_spec(family="2-in").digest
        session.optimize(other)
        assert recomputed(session) > before

    def test_session_context_serves_legacy_calls(self, tmp_path):
        spec = tiny_spec()
        session = Session(cache_dir=tmp_path)
        direct = session.optimize(spec)
        before = recomputed(session)
        legacy = optimize_for_trace(
            spec.trace.resolve(),
            spec.geometry.resolve(),
            family="2-in",
            context=session.context(),
        )
        assert recomputed(session) == before  # fully served from cache
        assert legacy.hash_function == direct.hash_function

    def test_spec_cache_dir_used_when_session_has_none(self, tmp_path):
        spec = tiny_spec().with_execution(cache_dir=str(tmp_path / "store"))
        session = Session()
        session.optimize(spec)
        assert (tmp_path / "store").exists()


class TestBackends:
    def test_session_exposes_backend_status(self):
        rows = Session().backends
        names = {row["name"] for row in rows}
        assert {"numpy", "python", "numba"} <= names
        assert sum(row["active"] for row in rows) == 1

    def test_execution_backend_pins_the_run_and_is_reported(self):
        spec = tiny_spec().with_execution(backend="python")
        result = Session().optimize(spec)
        assert result.backend == "python"
        assert result.to_json()["environment"]["backend"] == "python"
        # bit-identity across backends: same function, same stats
        default = Session().optimize(tiny_spec())
        assert default.hash_function == result.hash_function
        assert default.optimized == result.optimized

    def test_backend_never_enters_the_digest(self):
        spec = tiny_spec()
        assert spec.with_execution(backend="python").digest == spec.digest

    def test_unknown_backend_is_a_spec_error(self):
        with pytest.raises(SpecError, match="unknown backend"):
            tiny_spec().with_execution(backend="fortran")


class TestCampaignAndSweep:
    def test_campaign_matches_optimize(self, tmp_path):
        specs = [tiny_spec("qurt"), tiny_spec("fir")]
        session = Session(cache_dir=tmp_path, workers=1)
        campaign = session.campaign(specs)
        assert [row.search_seed for row in campaign.rows] == [0, 0]
        for spec, row in zip(specs, campaign.rows):
            direct = session.optimize(spec)
            assert row.optimized_misses == direct.optimized.misses
            assert row.base_misses == direct.baseline.misses

    def test_campaign_is_replayable_from_report(self, tmp_path):
        from repro.api import specs_from_report

        session = Session(cache_dir=tmp_path, workers=1)
        campaign = session.campaign([tiny_spec("qurt"), tiny_spec("fir")])
        replay = session.campaign(specs_from_report(campaign.to_json()))
        assert replay.fully_cached
        assert [r.optimized_misses for r in replay.rows] == [
            r.optimized_misses for r in campaign.rows
        ]

    def test_derive_seeds_gives_grid_semantics(self, tmp_path):
        specs = [tiny_spec("qurt"), tiny_spec("fir")]
        session = Session(cache_dir=tmp_path, workers=1)
        derived = session.campaign(specs, base_seed=3, derive_seeds=True)
        seeds = [row.search_seed for row in derived.rows]
        assert seeds[0] != seeds[1]  # per-cell identity seeds
        # The report still replays exactly: rows carry the derived seed.
        replayed = session.campaign(
            [row.to_json()["spec"] for row in derived.rows]
        )
        assert [r.search_seed for r in replayed.rows] == seeds

    def test_sweep_expands_cross_product(self, tmp_path):
        session = Session(cache_dir=tmp_path, workers=1)
        result = session.sweep(
            {
                "suite": "powerstone",
                "benchmarks": ["qurt", "fir"],
                "cache_bytes": [1024],
                "families": ["1-in", "2-in"],
                "scale": "tiny",
            }
        )
        assert len(result.rows) == 4
        assert {row.spec.search.family for row in result.rows} == {"1-in", "2-in"}

    def test_campaign_rejects_disagreeing_executions(self, tmp_path):
        a = tiny_spec("qurt").with_execution(cache_dir=str(tmp_path / "a"))
        b = tiny_spec("fir").with_execution(cache_dir=str(tmp_path / "b"))
        with pytest.raises(SpecError, match="disagree on execution.cache_dir"):
            Session().campaign([a, b])
        # A session-level override settles the disagreement.
        result = Session(cache_dir=tmp_path / "c", workers=1).campaign([a, b])
        assert len(result.rows) == 2 and (tmp_path / "c").exists()

    def test_campaign_rejects_disagreeing_shard_sizes(self):
        a = tiny_spec("qurt").with_execution(shard_size=300)
        b = tiny_spec("fir")
        with pytest.raises(SpecError, match="disagree on execution.shard_size"):
            Session().campaign([a, b])

    def test_expand_grid_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown grid key 'benchmark'"):
            expand_grid({"benchmark": "fft"})

    def test_expand_grid_defaults_to_whole_suite(self):
        from repro.workloads.registry import workload_names

        specs = expand_grid({"suite": "powerstone", "cache_bytes": [1024]})
        assert {s.trace.benchmark for s in specs} == set(
            workload_names("powerstone")
        )


class TestCampaignEnvironment:
    """A campaign runs on the session's own context and execution."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_writes_the_session_storage(self, tmp_path, workers):
        from repro.pipeline.artifact_cache import cache_events, replayed
        from repro.pipeline.storage import SQLITE_INDEX_NAME

        specs = [tiny_spec("qurt"), tiny_spec("fir")]
        with Session(cache_dir=tmp_path, storage="sqlite", workers=workers) as session:
            session.campaign(specs)
        assert (tmp_path / SQLITE_INDEX_NAME).exists()
        assert not (tmp_path / "optimization").exists()
        with Session(cache_dir=tmp_path, storage="sqlite") as session:
            with cache_events() as events:
                session.optimize(specs[1])
        assert replayed(events)

    def test_serial_campaign_counts_in_session_stats(self, tmp_path):
        session = Session(cache_dir=tmp_path, workers=1)
        session.campaign([tiny_spec("qurt")])
        assert recomputed(session) > 0

    def test_campaign_runs_on_the_execution_backend(self, monkeypatch):
        from repro.backend import registry

        python = registry._REGISTRY["python"]
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return python.lru_depth_at_least(*args, **kwargs)

        monkeypatch.setitem(
            registry._REGISTRY,
            "python",
            replace(python, lru_depth_at_least=counting),
        )
        spec = replace(
            tiny_spec("fir"),
            geometry=GeometrySpec(cache_bytes=1024, associativity=2),
        ).with_execution(backend="python")
        result = Session(workers=1).campaign([spec])
        assert result.rows[0].ok
        assert calls  # the 2-way replays dispatched to the python kernel

    def test_campaign_rejects_disagreeing_backends(self):
        a = tiny_spec("qurt").with_execution(backend="python")
        b = tiny_spec("fir")
        with pytest.raises(SpecError, match="disagree on execution.backend") as info:
            Session().campaign([a, b])
        assert info.value.field == "execution.backend"


class TestRowSpec:
    def test_rows_carry_the_spec_that_ran(self, tmp_path):
        """A pinned-seed row's spec is the input spec with a default
        ``execution``; a derived-seed row's spec carries the seed that
        ran, which the row report and ``search_seed`` echo."""
        pinned = tiny_spec(
            family="4-in", strategy="beam:2", restarts=1, seed=9, guard=True,
            max_steps=5,
        ).with_execution(retries=2)
        assoc = ExperimentSpec(
            trace=TraceSpec("powerstone", "qurt", scale="tiny"),
            geometry=GeometrySpec(cache_bytes=2048, associativity=2),
        ).with_execution(retries=2)
        session = Session(cache_dir=tmp_path, workers=1)
        rows = session.campaign([pinned, assoc]).rows
        assert [row.spec for row in rows] == [
            pinned.with_execution(retries=0),
            assoc.with_execution(retries=0),
        ]
        assert rows[0].search_seed == 9
        assert rows[0].to_json()["spec"] == rows[0].spec.to_dict()

        [derived] = session.campaign([pinned], base_seed=3, derive_seeds=True).rows
        seed = derive_seed(pinned, 3)
        assert seed != 9
        assert derived.spec == replace(
            pinned.with_execution(retries=0),
            search=replace(pinned.search, seed=seed),
        )
        assert derived.search_seed == seed
        assert derived.to_json()["search_seed"] == seed
        assert derived.to_json()["spec"]["search"]["seed"] == seed

    def test_file_backed_specs_are_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"")
        spec = ExperimentSpec(trace=TraceSpec(path=str(path)))
        with pytest.raises(SpecError, match="registry-workload cells"):
            Session(workers=1).campaign([spec])


class TestLifecycle:
    def test_context_manager_closes(self, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            session.optimize(tiny_spec())
        # Closed contexts keep their counters readable.
        assert recomputed(session) > 0

    def test_close_is_idempotent(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.optimize(tiny_spec())
        session.close()
        session.close()

    def test_close_shuts_down_adopted_executors(self):
        from concurrent.futures import ThreadPoolExecutor

        session = Session()
        pool = session.adopt(ThreadPoolExecutor(max_workers=1))
        assert pool.submit(lambda: 41 + 1).result() == 42
        session.close()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: 0)

    def test_close_releases_sqlite_backend(self, tmp_path):
        session = Session(cache_dir=tmp_path, storage="sqlite")
        session.optimize(tiny_spec())
        backend = session.context().cache.storage
        session.close()
        # The sqlite connection is really gone after close.
        import sqlite3

        with pytest.raises(sqlite3.ProgrammingError):
            backend._conn.execute("SELECT 1")


class TestCacheStats:
    def test_quarantined_always_present(self, tmp_path):
        """The PR-8 self-healing counter is part of every bucket, so
        /v1/stats consumers never need to guard for its absence."""
        session = Session(cache_dir=tmp_path)
        session.optimize(tiny_spec())
        stats = session.cache_stats()
        assert stats
        for per_kind in stats.values():
            assert set(per_kind) >= {"hits", "misses", "stores", "quarantined"}
            assert per_kind["quarantined"] == 0

    def test_quarantined_counts_surface(self, tmp_path):
        from repro.pipeline import use_faults

        session = Session(cache_dir=tmp_path)
        session.optimize(tiny_spec())
        fresh = Session(cache_dir=tmp_path)
        with use_faults("cache.load:truncate:p=1:count=1"):
            fresh.optimize(tiny_spec())
        assert sum(
            per_kind["quarantined"] for per_kind in fresh.cache_stats().values()
        ) >= 1

"""Pinned cache accounting of the memoized stages.

Every counted artifact (stats, profiles, shard partials, optimization
records) goes through :meth:`PipelineContext.stage`.  These flows pin
the per-kind hit/miss/store counts they produce, cold and warm, so a
change to how stages are memoized cannot move what a run reports about
its cache.
"""

from __future__ import annotations

from repro.api import ExperimentSpec, Session, expand_grid
from repro.cache.geometry import CacheGeometry
from repro.pipeline.context import PipelineContext
from repro.profiling.sharded import run_sharded_profile

GRID = {
    "suite": "powerstone",
    "benchmarks": ["qurt", "fir"],
    "cache_bytes": [256, 1024, 4096],
    "families": ["2-in", "1-in"],
    "scale": "tiny",
}

SPEC = {
    "trace": {"suite": "powerstone", "benchmark": "qurt", "scale": "tiny"},
    "geometry": {"cache_bytes": 1024, "block_size": 4},
    "search": {"family": "2-in", "restarts": 2, "seed": 3},
}


def _nonzero(stats: dict) -> dict:
    return {
        kind: {event: count for event, count in events.items() if count}
        for kind, events in stats.items()
        if any(events.values())
    }


def _campaign(cache_dir):
    with Session(cache_dir=cache_dir, workers=1) as session:
        result = session.campaign(expand_grid(GRID))
    rows = {
        (row.spec.trace.benchmark, row.spec.geometry.cache_bytes, row.spec.search.family):
        _nonzero(row.cache_stats)
        for row in result.rows
    }
    return rows, result.cache_totals()


PROFILE = {"profile": {"misses": 3, "stores": 3}}
OPT = {"optimization": {"misses": 1, "stores": 1}}


def _stats(count):
    return {"stats": {"misses": count, "stores": count}}


#: Per-row counters of the cold grid.  A grid profiles a trace's three
#: sizes in one pass, charged to the first cell that misses; a 1-in
#: search whose winner the 2-in cell already verified simulates nothing.
COLD_ROWS = {
    ("qurt", 256, "2-in"): {**PROFILE, **OPT, **_stats(2)},
    ("qurt", 256, "1-in"): OPT,
    ("qurt", 1024, "2-in"): {**OPT, **_stats(2)},
    ("qurt", 1024, "1-in"): OPT,
    ("qurt", 4096, "2-in"): {**OPT, **_stats(2)},
    ("qurt", 4096, "1-in"): OPT,
    ("fir", 256, "2-in"): {**PROFILE, **OPT, **_stats(2)},
    ("fir", 256, "1-in"): OPT,
    ("fir", 1024, "2-in"): {**OPT, **_stats(2)},
    ("fir", 1024, "1-in"): {**OPT, **_stats(1)},
    ("fir", 4096, "2-in"): {**OPT, **_stats(2)},
    ("fir", 4096, "1-in"): {**OPT, **_stats(1)},
}


class TestCampaign:
    def test_serial_grid_cold_then_warm(self, tmp_path):
        cold_rows, cold_totals = _campaign(tmp_path / "cache")
        assert cold_rows == COLD_ROWS
        assert cold_totals == {"hits": 0, "misses": 32, "stores": 32}
        warm_rows, warm_totals = _campaign(tmp_path / "cache")
        for (benchmark, size, family), stats in warm_rows.items():
            expected = {"optimization": {"hits": 1}}
            if family == "2-in":
                expected["profile"] = {"hits": 1}
            assert stats == expected, (benchmark, size, family)
        assert warm_totals == {"hits": 18, "misses": 0, "stores": 0}


class TestSessionOptimize:
    def test_restarts_twice_per_session(self, tmp_path):
        spec = ExperimentSpec.from_dict(SPEC)
        with Session(cache_dir=tmp_path / "cache") as session:
            first = session.optimize(spec)
            second = session.optimize(spec)
            assert _nonzero(session.cache_stats()) == {
                "optimization": {"hits": 1, "misses": 1, "stores": 1},
                "profile": {"misses": 1, "stores": 1},
                "stats": {"misses": 4, "stores": 4},
            }
        assert second.to_json() == first.to_json()
        with Session(cache_dir=tmp_path / "cache") as session:
            session.optimize(spec)
            session.optimize(spec)
            assert _nonzero(session.cache_stats()) == {
                "optimization": {"hits": 2},
                "profile": {"hits": 1},
            }


class TestShardedProfile:
    GEOMETRY = CacheGeometry(1024, block_size=4)

    def _trace(self):
        return ExperimentSpec.from_dict(SPEC).trace.resolve()

    def test_driver_walks_shards_cold_then_warm(self, tmp_path):
        trace = self._trace()
        counts = []
        for _ in range(2):
            context = PipelineContext(tmp_path / "cache")
            result = run_sharded_profile(
                trace, self.GEOMETRY, 16, shard_size=700, workers=1,
                context=context, capacities=(64,),
            )
            counts.append((result.recomputed_shards, result.recomputed_scans))
            counts.append(_nonzero(context.cache_stats()))
        shards = len(result.plan)
        assert shards > 1
        # The merged profiles are looked up first: a warm replay serves
        # the stored merge and touches no shard.
        assert counts == [
            (shards, shards - 1),
            {
                "profile": {"misses": 2, "stores": 2},
                "shard-profile": {"misses": 2 * shards, "stores": 2 * shards},
                "shard-scan": {"misses": shards - 1, "stores": shards - 1},
            },
            (0, 0),
            {"profile": {"hits": 1}},
        ]
        assert result.cached_shards == 0

    def test_driver_resumes_from_shards_without_merged_profile(self, tmp_path):
        trace = self._trace()
        run_sharded_profile(
            trace, self.GEOMETRY, 16, shard_size=700, workers=1,
            context=PipelineContext(tmp_path / "cache"), capacities=(64,),
        )
        for path in (tmp_path / "cache" / "profile").rglob("*.npz"):
            path.unlink()
        context = PipelineContext(tmp_path / "cache")
        result = run_sharded_profile(
            trace, self.GEOMETRY, 16, shard_size=700, workers=1,
            context=context, capacities=(64,),
        )
        shards = len(result.plan)
        assert (result.recomputed_shards, result.cached_shards) == (0, shards)
        assert result.recomputed_scans == 0
        assert _nonzero(context.cache_stats()) == {
            "profile": {"misses": 2, "stores": 2},
            "shard-profile": {"hits": 2 * shards},
        }

    def test_context_serves_the_merged_profile_when_warm(self, tmp_path):
        trace = self._trace()
        counts = []
        for _ in range(2):
            context = PipelineContext(tmp_path / "cache")
            context.profile(
                trace, self.GEOMETRY, 16, shard_size=700, workers=1, capacities=(64,)
            )
            counts.append(_nonzero(context.cache_stats()))
        shards = -(-len(trace) // 700)
        assert counts == [
            {
                "profile": {"misses": 2, "stores": 2},
                "shard-profile": {"misses": 2 * shards, "stores": 2 * shards},
                "shard-scan": {"misses": shards - 1, "stores": shards - 1},
            },
            {"profile": {"hits": 1}},
        ]


class TestServe:
    def test_second_submission_is_cached(self, tmp_path):
        from repro.serve import ReproServer, ServeClient

        session = Session(cache_dir=tmp_path / "cache", storage="sqlite")
        server = ReproServer(session=session, port=0, own_session=True, workers=2)
        handle = server.run_in_thread()
        try:
            client = ServeClient(port=handle.port)
            first = client.run(SPEC, timeout=300)
            second = client.run(SPEC, timeout=300)
            assert (first["cached"], second["cached"]) == (False, True)
            assert second["report"] == first["report"]
            assert _nonzero(client.stats()["cache"]["by_kind"]) == {
                "optimization": {"hits": 1, "misses": 1, "stores": 1},
                "profile": {"misses": 1, "stores": 1},
                "stats": {"misses": 4, "stores": 4},
            }
        finally:
            handle.stop()

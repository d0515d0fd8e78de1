"""Acceptance tests: fault-injected runs must equal fault-free runs.

The key invariant of the fault-tolerant execution layer: a run with
faults injected at every site, given a retry budget that covers the
fault counts, produces a report *bit-identical* to a fault-free run —
only execution metadata (timings, cache traffic, worker counts) may
differ.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.report import (
    campaign_from_report,
    campaign_report,
    optimization_from_report,
    optimization_report,
    specs_from_report,
)
from repro.cache.geometry import CacheGeometry
from repro.api import expand_grid
from repro.pipeline import FAULTS_ENV, run_campaign, use_faults
from repro.pipeline.campaign import fault_key
from repro.pipeline.faults import _draw
from repro.profiling.sharded import run_sharded_profile
from repro.trace import Trace


def tiny_grid(benchmarks=("qurt", "fir")):
    return expand_grid(
        {
            "suite": "powerstone",
            "benchmarks": benchmarks,
            "cache_bytes": [1024],
            "families": ["2-in"],
            "scale": "tiny",
        }
    )


def normalized_report(result):
    """Serialize a campaign result with execution metadata blanked.

    Timings, cache traffic and worker counts legitimately differ
    between a faulted and a clean run (retries re-read the cache);
    everything else — row specs, seeds, and every metric — must match
    byte for byte.
    """
    payload = campaign_report(result)
    payload["seconds"] = 0.0
    payload["cache_dir"] = None
    payload["cache_totals"] = {}
    payload["fully_cached"] = False
    payload["workers"] = 0
    for row in payload["rows"]:
        row["seconds"] = 0.0
    return json.dumps(payload, sort_keys=True)


ALL_SITE_PLAN = ",".join(
    [
        "campaign.task:error:p=0.3:seed=11",
        "shard.profile:error:p=0.3:seed=12",
        "cache.load:truncate:p=0.3:seed=13",
        "backend.kernel:error:p=0.3:seed=14",
    ]
)


class TestCampaignBitIdentity:
    def test_serial_faults_at_every_site(self, tmp_path):
        specs = tiny_grid()
        clean = run_campaign(specs, cache_dir=tmp_path / "clean", workers=1)
        with use_faults(ALL_SITE_PLAN):
            faulted = run_campaign(
                specs, cache_dir=tmp_path / "faulted", workers=1, retries=3
            )
        assert normalized_report(faulted) == normalized_report(clean)
        assert all(row.status == "ok" for row in faulted.rows)

    def test_parallel_worker_kills(self, tmp_path, monkeypatch):
        specs = tiny_grid()
        clean = run_campaign(specs, cache_dir=tmp_path / "clean", workers=1)
        # Pool workers only see the plan through the environment.
        monkeypatch.setenv(FAULTS_ENV, "campaign.task:kill:p=1:count=1:seed=3")
        killed = run_campaign(
            specs, cache_dir=tmp_path / "killed", workers=2, retries=3
        )
        assert normalized_report(killed) == normalized_report(clean)
        assert all(row.attempts >= 2 for row in killed.rows)

    def test_warm_replay_after_faulted_run_recomputes_nothing(self, tmp_path):
        specs = tiny_grid()
        with use_faults(ALL_SITE_PLAN):
            run_campaign(specs, cache_dir=tmp_path, workers=1, retries=3)
        warm = run_campaign(specs, cache_dir=tmp_path, workers=1)
        totals = warm.cache_totals()
        assert totals.get("stores", 0) == 0
        assert warm.fully_cached


class TestSkipPolicy:
    def _split_p(self, specs, seed):
        """A probability that makes exactly one cell fault under ``seed``."""
        draws = sorted(_draw("campaign.task", seed, fault_key(s)) for s in specs)
        assert len(draws) >= 2
        return (draws[0] + draws[1]) / 2

    def test_failed_rows_round_trip_through_reports(self, tmp_path):
        specs = tiny_grid()
        p = self._split_p(specs, seed=0)
        # count=99 outlasts the budget, so exactly one task fails for good.
        with use_faults(f"campaign.task:error:p={p}:count=99:seed=0"):
            result = run_campaign(
                specs, cache_dir=tmp_path, workers=1, retries=1, on_error="skip"
            )
        failed = [row for row in result.rows if row.status == "failed"]
        ok = [row for row in result.rows if row.status == "ok"]
        assert len(failed) == 1 and len(ok) == len(specs) - 1
        assert failed[0].attempts == 2
        assert "FaultInjected" in failed[0].error

        payload = campaign_report(result)
        rows = payload["rows"]
        failed_payloads = [r for r in rows if r.get("status") == "failed"]
        assert len(failed_payloads) == 1
        assert failed_payloads[0]["attempts"] == 2
        assert failed_payloads[0]["error"]
        # ok rows carry no failure keys at all (byte-stable reports)
        for r in rows:
            if r.get("status") is None:
                assert "error" not in r and "attempts" not in r

        rebuilt = campaign_from_report(payload)
        assert [r.status for r in rebuilt.rows] == [r.status for r in result.rows]
        assert [r.error for r in rebuilt.rows] == [r.error for r in result.rows]
        # every row — including the failed one — yields a replayable spec
        replayed = specs_from_report(payload)
        assert len(replayed) == len(specs)
        assert replayed == [row.spec for row in result.rows]

    def test_format_campaign_marks_failures(self, tmp_path):
        from repro.pipeline import format_campaign

        specs = tiny_grid()
        p = self._split_p(specs, seed=0)
        with use_faults(f"campaign.task:error:p={p}:count=99:seed=0"):
            result = run_campaign(
                specs, cache_dir=tmp_path, workers=1, on_error="skip"
            )
        text = format_campaign(result)
        assert "FAILED" in text


class TestShardedBitIdentity:
    def _trace(self):
        rng = np.random.default_rng(5)
        return Trace(
            rng.integers(0, 2000, size=4000, dtype=np.uint64) * 16,
            name="fault-tolerance",
        )

    def test_faulted_profile_matches_clean_and_single_pass(self):
        trace = self._trace()
        geometry = CacheGeometry(1024, block_size=16)
        clean = run_sharded_profile(trace, geometry, 8, shard_size=600)
        with use_faults("shard.profile:error:p=0.5:seed=21"):
            faulted = run_sharded_profile(
                trace, geometry, 8, shard_size=600, retries=3
            )
        assert faulted.profile.digest == clean.profile.digest

    def test_skip_policy_refused_for_profiles(self):
        # A profile missing a shard is not a profile: "skip" coerces to
        # "raise", so an unhealed fault aborts instead of dropping data.
        trace = self._trace()
        geometry = CacheGeometry(1024, block_size=16)
        with use_faults("shard.profile:error:p=1:count=99:seed=0"):
            with pytest.raises(Exception):
                run_sharded_profile(
                    trace, geometry, 8, shard_size=600, retries=1, on_error="skip"
                )


class TestBackendDegradation:
    @pytest.fixture()
    def brittle_backend(self):
        from repro.backend.registry import (
            _RAW_KERNELS,
            _REGISTRY,
            Backend,
            clear_degradations,
            register_backend,
        )

        def boom(*args, **kwargs):
            raise RuntimeError("jit exploded")

        clear_degradations()
        backend = register_backend(
            Backend(
                name="brittle",
                lru_depth_at_least=boom,
                skewed_misses=boom,
                priority=-100,
                description="always-failing test backend",
            )
        )
        yield backend
        _REGISTRY.pop("brittle", None)
        _RAW_KERNELS.pop(("brittle", "lru_depth_at_least"), None)
        _RAW_KERNELS.pop(("brittle", "skewed_misses"), None)
        clear_degradations()

    def test_runtime_failure_falls_back_to_numpy(self, brittle_backend):
        from repro.backend.registry import degradation_events, get_backend

        prev = np.array([-1, 0, -1, 1], dtype=np.int64)
        nxt = np.array([1, 4, 3, 4], dtype=np.int64)
        expected = get_backend("numpy").lru_depth_at_least(prev, nxt, 1)
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            got = brittle_backend.lru_depth_at_least(prev, nxt, 1)
        np.testing.assert_array_equal(got, expected)
        events = degradation_events()
        assert len(events) == 1 and "brittle" in events[0]
        # degradation is recorded once; later calls go straight to numpy
        got_again = brittle_backend.lru_depth_at_least(prev, nxt, 1)
        np.testing.assert_array_equal(got_again, expected)
        assert len(degradation_events()) == 1

    def test_numpy_failures_still_raise(self):
        from repro.backend.registry import get_backend

        with pytest.raises(Exception):
            get_backend("numpy").lru_depth_at_least("not", "arrays", None)

    def test_warnings_survive_report_round_trip(self):
        from repro.api.session import Session
        from repro.api.spec import ExperimentSpec, SearchSpec, TraceSpec

        spec = ExperimentSpec(
            trace=TraceSpec("powerstone", "qurt", scale="tiny"),
            search=SearchSpec(n=12, restarts=0),
        )
        result = Session().optimize(spec)
        assert result.warnings == []
        payload = optimization_report(result, spec)
        assert "warnings" not in payload["environment"]

        result.warnings = ["compute backend 'x' kernel 'y' failed at runtime"]
        payload = optimization_report(result, spec)
        assert payload["environment"]["warnings"] == result.warnings
        rebuilt = optimization_from_report(payload)
        assert rebuilt.warnings == result.warnings


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    site=st.sampled_from(("campaign.task", "cache.load", "backend.kernel")),
    kind=st.sampled_from(("error", "truncate")),
    p=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=1000),
    count=st.integers(min_value=1, max_value=3),
)
def test_random_fault_plans_are_bit_identical(tmp_path_factory, site, kind, p, seed, count):
    """Property: any fault plan whose counts the retry budget covers is
    invisible in the report, and the warm replay recomputes nothing."""
    specs = tiny_grid(benchmarks=("qurt",))
    scratch = tmp_path_factory.mktemp("fault-prop")
    clean = run_campaign(specs, cache_dir=scratch / "clean", workers=1)
    plan = f"{site}:{kind}:p={p}:count={count}:seed={seed}"
    with use_faults(plan):
        faulted = run_campaign(
            specs, cache_dir=scratch / "faulted", workers=1, retries=3
        )
    assert normalized_report(faulted) == normalized_report(clean)
    warm = run_campaign(specs, cache_dir=scratch / "faulted", workers=1)
    assert warm.cache_totals().get("stores", 0) == 0


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    site=st.sampled_from(("shard.profile", "cache.load")),
    p=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=1000),
    count=st.integers(min_value=1, max_value=3),
)
def test_random_fault_plans_sharded_bit_identical(tmp_path_factory, site, p, seed, count):
    """Same property for the sharded profiler: healed faults are
    invisible in the merged profile, warm replays recompute 0 shards."""
    from repro.pipeline.context import PipelineContext

    rng = np.random.default_rng(5)
    trace = Trace(
        rng.integers(0, 2000, size=4000, dtype=np.uint64) * 16,
        name="fault-tolerance",
    )
    geometry = CacheGeometry(1024, block_size=16)
    clean = run_sharded_profile(trace, geometry, 8, shard_size=600)
    context = PipelineContext(tmp_path_factory.mktemp("fault-prop-shard"))
    plan = f"{site}:error:p={p}:count={count}:seed={seed}"
    with use_faults(plan):
        faulted = run_sharded_profile(
            trace, geometry, 8, shard_size=600, context=context, retries=3
        )
    assert faulted.profile.digest == clean.profile.digest
    warm = run_sharded_profile(
        trace, geometry, 8, shard_size=600, context=context
    )
    assert warm.recomputed_shards == 0 and warm.recomputed_scans == 0
    assert warm.profile.digest == clean.profile.digest

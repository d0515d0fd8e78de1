"""JobRegistry: lifecycle, in-flight dedup, queue limits."""

import pytest

from repro.api import ExperimentSpec, GeometrySpec, SearchSpec, TraceSpec
from repro.serve import JobRegistry, QueueFull


def spec(benchmark="qurt", n=8):
    return ExperimentSpec(
        trace=TraceSpec("powerstone", benchmark, scale="tiny"),
        geometry=GeometrySpec(cache_bytes=1024),
        search=SearchSpec(family="2-in", n=n),
    )


class TestLifecycle:
    def test_submit_creates_queued_job(self):
        registry = JobRegistry(clock=lambda: 100.0)
        job, deduplicated = registry.submit(spec())
        assert not deduplicated
        assert job.state == "queued" and job.created == 100.0
        assert job.digest == spec().digest
        assert registry.get(job.id) is job

    def test_full_transition_chain(self):
        registry = JobRegistry()
        job, _ = registry.submit(spec())
        registry.mark_running(job.id)
        assert job.state == "running" and job.started is not None
        registry.mark_done(job.id, {"schema": "repro-report/v1"}, 1, False)
        assert job.state == "done" and job.finished is not None
        assert job.report == {"schema": "repro-report/v1"}
        assert job.attempts == 1 and job.cached is False

    def test_failure_records_error(self):
        registry = JobRegistry()
        job, _ = registry.submit(spec())
        registry.mark_failed(job.id, "FaultInjected: boom", 3)
        assert job.state == "failed"
        assert job.error == "FaultInjected: boom" and job.attempts == 3

    def test_counts_zero_filled(self):
        registry = JobRegistry()
        assert registry.counts() == {
            "queued": 0, "running": 0, "done": 0, "failed": 0,
        }
        registry.submit(spec())
        assert registry.counts()["queued"] == 1

    def test_get_unknown_is_none(self):
        assert JobRegistry().get("job-999999") is None

    def test_terminal_state_is_published_with_its_fields(self):
        """The event loop reads jobs without the lock, so a job must
        never be visible as done without its report, or as failed
        without its error.  The clock runs inside every transition, so
        it sees each job exactly as such a reader could."""
        snapshots, jobs = [], []

        def clock():
            snapshots.extend(job.to_json(include_report=True) for job in jobs)
            return 1.0

        registry = JobRegistry(clock=clock)
        jobs.extend(registry.submit(spec(name))[0] for name in ("qurt", "fir"))
        done, failed = jobs
        registry.mark_running(done.id)
        registry.mark_done(done.id, {"schema": "repro-report/v1"}, 1, True)
        registry.mark_failed(failed.id, "FaultInjected: boom", 2)
        registry.submit(spec("crc"))  # one more clock read after both ends
        terminal = [s for s in snapshots if s["state"] in ("done", "failed")]
        assert {s["state"] for s in terminal} == {"done", "failed"}
        for snapshot in terminal:
            assert snapshot["finished"] is not None
            if snapshot["state"] == "done":
                assert snapshot["report"] == {"schema": "repro-report/v1"}
                assert snapshot["attempts"] == 1 and snapshot["cached"] is True
            else:
                assert snapshot["error"] == "FaultInjected: boom"
                assert snapshot["attempts"] == 2


class TestInFlightDedup:
    def test_same_spec_coalesces_while_in_flight(self):
        registry = JobRegistry()
        first, dedup1 = registry.submit(spec())
        second, dedup2 = registry.submit(spec())
        assert not dedup1 and dedup2
        assert second is first and first.submissions == 2

    def test_dedup_covers_running_state(self):
        registry = JobRegistry()
        job, _ = registry.submit(spec())
        registry.mark_running(job.id)
        again, deduplicated = registry.submit(spec())
        assert deduplicated and again is job

    def test_different_specs_never_coalesce(self):
        registry = JobRegistry()
        a, _ = registry.submit(spec(n=8))
        b, _ = registry.submit(spec(n=9))
        assert a is not b

    def test_terminal_job_stops_deduplicating(self):
        """Dedup is strictly in flight: a finished spec re-runs (and
        replays from the artifact cache), a failed one gets a clean
        retry instead of a poisoned result."""
        registry = JobRegistry()
        done, _ = registry.submit(spec())
        registry.mark_running(done.id)
        registry.mark_done(done.id, {}, 1, True)
        fresh, deduplicated = registry.submit(spec())
        assert not deduplicated and fresh is not done
        registry.mark_failed(fresh.id, "boom", 1)
        retry, deduplicated = registry.submit(spec())
        assert not deduplicated and retry is not fresh

    def test_in_flight_counts_dedup_table(self):
        registry = JobRegistry()
        registry.submit(spec(n=8))
        registry.submit(spec(n=8))
        registry.submit(spec(n=9))
        assert registry.in_flight() == 2


class TestInlineJobs:
    def test_join_counts_onto_the_job_in_flight(self):
        registry = JobRegistry()
        assert registry.join(spec()) is None
        job, _ = registry.submit(spec())
        assert registry.join(spec()) is job and job.submissions == 2
        registry.mark_done(job.id, {}, 1, False)
        assert registry.join(spec()) is None

    def test_add_done_registers_a_finished_job(self):
        registry = JobRegistry(clock=lambda: 7.0)
        job = registry.add_done(spec(), {"schema": "repro-report/v1"}, 6.0, True)
        assert (job.state, job.created, job.started, job.finished) == (
            "done", 6.0, 6.0, 7.0,
        )
        assert (job.attempts, job.cached, job.submissions) == (1, True, 1)
        assert registry.get(job.id) is job and registry.in_flight() == 0
        again, deduplicated = registry.submit(spec())
        assert not deduplicated and again is not job


class TestQueueLimit:
    def test_new_job_beyond_limit_rejected(self):
        registry = JobRegistry()
        registry.submit(spec(n=8), limit=1)
        with pytest.raises(QueueFull, match="limit 1"):
            registry.submit(spec(n=9), limit=1)

    def test_dedup_submission_bypasses_limit(self):
        registry = JobRegistry()
        job, _ = registry.submit(spec(), limit=1)
        again, deduplicated = registry.submit(spec(), limit=1)
        assert deduplicated and again is job

    def test_limit_frees_up_after_completion(self):
        registry = JobRegistry()
        job, _ = registry.submit(spec(n=8), limit=1)
        registry.mark_running(job.id)
        registry.mark_done(job.id, {}, 1, False)
        registry.submit(spec(n=9), limit=1)  # no raise


class TestSerialization:
    def test_to_json_shape(self):
        registry = JobRegistry(clock=lambda: 5.0)
        job, _ = registry.submit(spec())
        payload = job.to_json()
        assert payload["job_id"] == job.id
        assert payload["state"] == "queued"
        assert payload["digest"] == spec().digest
        assert "report" not in payload

    def test_report_included_only_when_asked_and_done(self):
        registry = JobRegistry()
        job, _ = registry.submit(spec())
        assert "report" not in job.to_json(include_report=True)
        registry.mark_running(job.id)
        registry.mark_done(job.id, {"schema": "repro-report/v1"}, 1, False)
        assert job.to_json(include_report=True)["report"] == {
            "schema": "repro-report/v1"
        }
        assert "report" not in job.to_json()

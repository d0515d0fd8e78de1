"""ReproServer over a real socket: protocol, dedup, cache replay."""

import json
import socket
import threading
import time

import pytest

from repro.api import Session
from repro.pipeline import use_faults
from repro.pipeline.artifact_cache import ArtifactCache
from repro.serve import ReproServer, ServeClient, ServeError

SPEC = {
    "trace": {"suite": "powerstone", "benchmark": "qurt", "scale": "tiny"},
    "geometry": {"cache_bytes": 1024, "block_size": 16, "associativity": 1},
    "search": {"family": "2-in", "n": 6, "seed": 0},
}

SPEC_TOML = """
[trace]
suite = "powerstone"
benchmark = "qurt"
scale = "tiny"

[geometry]
cache_bytes = 1024
block_size = 16
associativity = 1

[search]
family = "2-in"
n = 6
seed = 0
"""


def start_server(tmp_path, **kwargs):
    session = Session(cache_dir=tmp_path / "cache", storage="sqlite")
    kwargs.setdefault("workers", 2)
    server = ReproServer(session=session, port=0, own_session=True, **kwargs)
    handle = server.run_in_thread()
    return server, handle, ServeClient(port=handle.port)


@pytest.fixture
def served(tmp_path):
    server, handle, client = start_server(tmp_path)
    yield server, client
    handle.stop()


class TestProtocol:
    def test_healthz(self, served):
        _, client = served
        assert client.healthz() == {"status": "ok"}

    def test_stats_shape(self, served):
        server, client = served
        stats = client.stats()
        assert stats["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}
        assert stats["queue"] == {"depth": 0, "limit": 64, "workers": 2}
        assert stats["cache"]["storage"] == "sqlite"
        assert set(stats["cache"]["totals"]) == {
            "hits", "misses", "stores", "quarantined",
        }

    def test_unknown_path_404(self, served):
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, served):
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_invalid_spec_400(self, served):
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client.submit({"trace": {"suite": "no-such-suite"}})
        assert excinfo.value.status == 400

    def test_window_wider_than_profile_bound_400(self, served):
        from repro.names import MAX_HASHED_BITS

        _, client = served
        spec = dict(SPEC, search=dict(SPEC["search"], n=MAX_HASHED_BITS + 1))
        with pytest.raises(ServeError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert client.stats()["jobs"]["queued"] == 0

    def test_non_object_body_400(self, served):
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/jobs", b"[1, 2]")
        assert excinfo.value.status == 400

    def test_empty_body_400(self, served):
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/jobs", b"")
        assert excinfo.value.status == 400

    def test_wrong_method_405(self, served):
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/healthz", b"{}")
        assert excinfo.value.status == 405

    @pytest.mark.parametrize(
        "body, content_type",
        [
            (b"[" * 200_000, "application/json"),
            (b"a = " + b"[" * 200_000, "application/toml"),
        ],
        ids=["json", "toml"],
    )
    def test_deeply_nested_body_400(self, served, body, content_type):
        """Nesting too deep for the parser is a bad request, not a 500."""
        _, client = served
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/jobs", body, content_type=content_type)
        assert excinfo.value.status == 400
        assert client.healthz() == {"status": "ok"}

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_400(self, served, length):
        _, client = served
        request = (
            "POST /v1/jobs HTTP/1.1\r\n"
            "Host: localhost\r\n"
            f"Content-Length: {length}\r\n"
            "Connection: close\r\n\r\n{}"
        )
        with socket.create_connection((client.host, client.port), timeout=10) as conn:
            conn.sendall(request.encode("latin-1"))
            status_line = conn.makefile("rb").readline().decode("latin-1")
        assert status_line.split()[1] == "400", status_line


class TestJobsOverHttp:
    def test_json_submission_end_to_end(self, served):
        _, client = served
        submitted = client.submit(SPEC)
        assert submitted["state"] in ("queued", "running")
        assert not submitted["deduplicated"]
        job = client.wait(submitted["job_id"], timeout=300)
        assert job["state"] == "done" and job["attempts"] == 1
        report = job["report"]
        assert report["schema"] == "repro-report/v1"
        assert report["spec"]["trace"]["benchmark"] == "qurt"
        assert client.report(submitted["job_id"]) == report

    def test_toml_submission_same_digest(self, served):
        _, client = served
        via_toml = client.submit(SPEC_TOML)
        via_json = client.submit(SPEC)
        assert via_toml["digest"] == via_json["digest"]

    def test_report_before_done_409(self, served):
        server, client = served
        with use_faults("serve.job:delay:delay=0.5"):
            submitted = client.submit(SPEC)
            with pytest.raises(ServeError) as excinfo:
                client.report(submitted["job_id"])
            assert excinfo.value.status == 409
            client.wait(submitted["job_id"], timeout=300)

    def test_resubmission_after_done_is_cached_replay(self, served):
        _, client = served
        first = client.run(SPEC, timeout=300)
        second = client.run(SPEC, timeout=300)
        assert second["job_id"] != first["job_id"]
        assert second["cached"] is True and first["cached"] is False
        assert second["report"] == first["report"]

    def test_injected_fault_fails_job(self, served):
        _, client = served
        with use_faults("serve.job:error:p=1:count=9"):
            submitted = client.submit(SPEC)
            with pytest.raises(ServeError, match="failed"):
                client.wait(submitted["job_id"], timeout=300)
        job = client.job(submitted["job_id"])
        assert job["state"] == "failed" and "FaultInjected" in job["error"]

    def test_retries_heal_injected_fault(self, tmp_path):
        server, handle, client = start_server(tmp_path, retries=2)
        try:
            with use_faults("serve.job:error:p=1:count=1"):
                job = client.run(SPEC, timeout=300)
            assert job["state"] == "done" and job["attempts"] == 2
        finally:
            handle.stop()


class TestInFlightDedup:
    def test_concurrent_identical_specs_share_one_computation(self, served):
        """The acceptance-criteria E2E: N concurrent clients, one job,
        one computation, byte-identical reports."""
        server, client = served
        n_clients = 5
        submissions, reports, errors = [], [], []

        def one_client():
            try:
                submitted = client.submit(SPEC)
                submissions.append(submitted)
                job = client.wait(submitted["job_id"], timeout=300)
                reports.append(json.dumps(job["report"], sort_keys=True))
            except Exception as error:  # surfaced below
                errors.append(error)

        # Hold the job open long enough for every submission to land
        # in the dedup window.
        with use_faults("serve.job:delay:delay=1.5"):
            threads = [
                threading.Thread(target=one_client) for _ in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        assert not errors, errors
        job_ids = {s["job_id"] for s in submissions}
        assert len(job_ids) == 1  # all coalesced onto one job
        assert sum(s["deduplicated"] for s in submissions) == n_clients - 1
        assert len(set(reports)) == 1 and len(reports) == n_clients
        job = server.registry.get(job_ids.pop())
        assert job.submissions == n_clients
        # One computation: a single job ever existed, and it stored
        # each artifact exactly once (no double stores from racers).
        assert len(server.registry.jobs()) == 1
        stats = server.session.cache_stats()
        assert all(
            per_kind["stores"] <= per_kind["misses"] for per_kind in stats.values()
        )
        assert server._counter_totals()["stores"] > 0

    def test_different_specs_run_as_separate_jobs(self, served):
        _, client = served
        a = client.submit(SPEC)
        b = client.submit({**SPEC, "search": {**SPEC["search"], "n": 7}})
        assert a["job_id"] != b["job_id"]
        client.wait(a["job_id"], timeout=300)
        client.wait(b["job_id"], timeout=300)


class TestConcurrentCachedFlags:
    def test_cold_job_meanwhile_leaves_a_replay_cached(self, served, monkeypatch):
        """A job's ``cached`` flag counts only its own cache events: a
        hit answered while a cold job, held after its first miss, runs
        on a worker is cached, and the cold job is not."""
        _, client = served
        assert client.run(SPEC, timeout=300)["cached"] is False
        missed, release = threading.Event(), threading.Event()
        bump = ArtifactCache._bump

        def held(self, kind, event):
            bump(self, kind, event)
            # Only a worker counts misses: a replay-only probe charges none.
            if event == "misses" and not missed.is_set():
                missed.set()
                assert release.wait(timeout=300)

        monkeypatch.setattr(ArtifactCache, "_bump", held)
        cold = client.submit({**SPEC, "search": {**SPEC["search"], "n": 7}})
        try:
            assert missed.wait(timeout=300)
            warm = client.submit(SPEC)
            assert warm["state"] == "done"
            assert client.job(cold["job_id"])["state"] == "running"
        finally:
            release.set()
        assert client.job(warm["job_id"])["cached"] is True
        assert client.wait(cold["job_id"], timeout=300)["cached"] is False


class TestInlineHits:
    """A hit is answered inside its POST; anything else is queued."""

    @staticmethod
    def post(client, spec) -> tuple[int, dict]:
        status, raw = client._exchange(
            "POST", "/v1/jobs", json.dumps(spec).encode(),
            {"Content-Type": "application/json"},
        )
        return status, json.loads(raw)

    def test_hit_post_answers_done(self, served):
        _, client = served
        cold = client.run(SPEC, timeout=300)
        status, posted = self.post(client, SPEC)
        assert status == 200
        assert set(posted) == {"job_id", "digest", "state", "deduplicated"}
        assert posted["state"] == "done" and posted["deduplicated"] is False
        job = client.job(posted["job_id"])
        assert (job["cached"], job["attempts"], job["error"]) == (True, 1, None)
        assert job["created"] == job["started"] <= job["finished"]
        queued_report = client._exchange("GET", f"/v1/jobs/{cold['job_id']}/report", None, {})
        hit_report = client._exchange("GET", f"/v1/jobs/{posted['job_id']}/report", None, {})
        assert hit_report == queued_report

    def test_cold_spec_is_queued_and_charges_misses_once(self, served):
        _, client = served
        status, posted = self.post(client, SPEC)
        assert status == 202 and posted["state"] in ("queued", "running")
        assert client.wait(posted["job_id"], timeout=300)["cached"] is False
        totals = client.stats()["cache"]["totals"]
        assert totals["misses"] == totals["stores"] > 0

    def test_partly_cached_spec_is_queued_not_failed(self, served):
        """A probe that hits some stages, then raises NotCached, is a
        202 and a queued run that computes the rest, never a 500."""
        _, client = served
        client.run({**SPEC, "search": {**SPEC["search"], "n": 7}}, timeout=300)
        before = client.stats()["cache"]["totals"]
        status, posted = self.post(client, SPEC)
        assert status == 202
        job = client.wait(posted["job_id"], timeout=300)
        assert job["state"] == "done" and job["cached"] is False
        after = client.stats()["cache"]["totals"]
        assert after["misses"] - before["misses"] == after["stores"] - before["stores"]

    def test_other_failure_is_left_to_the_queued_run(self, served, monkeypatch):
        """Any other exception in the inline replay queues the spec,
        whose run fails the job with it: never a 500."""
        server, client = served

        def broken(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(server.session, "optimize", broken)
        status, posted = self.post(client, SPEC)
        # The queued run may fail before the answer is written.
        assert (status, posted["state"]) in (
            (202, "queued"), (202, "running"), (200, "failed"),
        )
        with pytest.raises(ServeError, match="boom"):
            client.wait(posted["job_id"], timeout=300)

    @pytest.mark.parametrize(
        "plan", ["serve.job:delay:delay=30", "serve.job:error:p=1:count=9"],
        ids=["delay", "error"],
    )
    def test_hit_fires_no_serve_job_fault(self, served, plan):
        _, client = served
        client.run(SPEC, timeout=300)
        with use_faults(plan):
            started = time.monotonic()
            posted = client.submit(SPEC)
            assert time.monotonic() - started < 15
        assert posted["state"] == "done"
        job = client.job(posted["job_id"])
        assert (job["cached"], job["attempts"], job["error"]) == (True, 1, None)

    def test_hit_is_answered_through_a_full_queue(self, tmp_path):
        server, handle, client = start_server(tmp_path, queue_limit=1, workers=1)
        try:
            client.run(SPEC, timeout=300)
            with use_faults("serve.job:delay:delay=1.0"):
                held = client.submit({**SPEC, "search": {**SPEC["search"], "n": 7}})
                assert client.submit(SPEC)["state"] == "done"
                client.wait(held["job_id"], timeout=300)
        finally:
            handle.stop()


class TestQueueLimit:
    def test_full_queue_answers_503(self, tmp_path):
        server, handle, client = start_server(tmp_path, queue_limit=1, workers=1)
        try:
            with use_faults("serve.job:delay:delay=1.0"):
                first = client.submit(SPEC)
                with pytest.raises(ServeError) as excinfo:
                    client.submit({**SPEC, "search": {**SPEC["search"], "n": 7}})
                assert excinfo.value.status == 503
                # The identical spec still dedups through a full queue.
                again = client.submit(SPEC)
                assert again["deduplicated"] and again["job_id"] == first["job_id"]
                client.wait(first["job_id"], timeout=300)
        finally:
            handle.stop()


class TestRestartReplay:
    def test_resubmission_after_restart_replays_from_sqlite_cache(self, tmp_path):
        """Acceptance criteria: a warm re-submission after a restart
        replays from the sqlite-backed cache with zero recomputes."""
        server1, handle1, client1 = start_server(tmp_path)
        cold = client1.run(SPEC, timeout=300)
        handle1.stop()

        server2, handle2, client2 = start_server(tmp_path)
        try:
            assert server2.session.context().cache.storage_name == "sqlite"
            warm = client2.run(SPEC, timeout=300)
            assert warm["cached"] is True
            assert warm["report"] == cold["report"]
            totals = client2.stats()["cache"]["totals"]
            assert totals["misses"] == 0 and totals["stores"] == 0
            assert totals["hits"] > 0
        finally:
            handle2.stop()

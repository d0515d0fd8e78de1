"""``Prefer: wait`` (RFC 7240 §4.3) on ``POST /v1/jobs`` and ``GET
/v1/jobs/<id>``: the answer waits until the job ends or the wait, capped
at ``_READ_TIMEOUT_S``, runs out, and says so in ``Preference-Applied``.
``Prefer: return=representation`` (§4.2) on ``POST /v1/jobs`` answers
an ended job with the body ``GET /v1/jobs/<id>`` sends, so
``ServeClient.run`` takes one request for a hit.  A preference the
server does not know is ignored.
"""

import json
import socket
import time

import pytest

import repro.serve.server as server_module
from repro.pipeline import use_faults
from repro.serve import ServeError

from .test_request_limits import get, read_response
from .test_server import SPEC, start_server


@pytest.fixture
def served(tmp_path):
    server, handle, client = start_server(tmp_path)
    yield server, client
    handle.stop()


class TestPreferWait:
    """``Prefer: wait`` holds a job's answer until it ends or time runs out."""

    @staticmethod
    def ask(client, request: bytes) -> tuple[int, dict, dict]:
        with socket.create_connection((client.host, client.port), timeout=30) as conn:
            conn.sendall(request)
            with conn.makefile("rb") as stream:
                status, headers, body = read_response(stream)
        return status, headers, json.loads(body)

    @staticmethod
    def post(spec, prefer: str) -> bytes:
        body = json.dumps(spec).encode()
        head = (
            "POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            f"Prefer: {prefer}\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("latin-1") + body

    def test_post_waits_for_the_job(self, served):
        _, client = served
        with use_faults("serve.job:delay:delay=0.3"):
            status, headers, posted = self.ask(client, self.post(SPEC, "wait=9"))
        assert status == 200 and posted["state"] == "done"
        assert headers["preference-applied"] == "wait=9"

    def test_get_waits_for_the_job(self, served):
        _, client = served
        with use_faults("serve.job:delay:delay=0.3"):
            job_id = client.submit(SPEC)["job_id"]
            status, headers, job = self.ask(
                client, get(["Prefer: respond-async, wait=5"], target=f"/v1/jobs/{job_id}")
            )
        assert status == 200 and job["state"] == "done" and "report" in job
        assert headers["preference-applied"] == "wait=5"

    def test_wait_runs_out(self, served):
        _, client = served
        with use_faults("serve.job:delay:delay=2"):
            job_id = client.submit(SPEC)["job_id"]
            started = time.monotonic()
            _, headers, job = self.ask(
                client, get(["Prefer: wait=0.2"], target=f"/v1/jobs/{job_id}")
            )
            assert time.monotonic() - started < 1.5
            assert job["state"] in ("queued", "running")
            assert headers["preference-applied"] == "wait=0.2"
            client.wait(job_id, timeout=300)

    def test_wait_is_capped(self, served, monkeypatch):
        _, client = served
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.2)
        with use_faults("serve.job:delay:delay=2"):
            job_id = client.submit(SPEC)["job_id"]
            _, headers, job = self.ask(
                client, get(["Prefer: wait=3600"], target=f"/v1/jobs/{job_id}")
            )
            assert job["state"] in ("queued", "running")
            assert headers["preference-applied"] == "wait=0.2"
            client.wait(job_id, timeout=300)

    @pytest.mark.parametrize("prefer", ["wait=-1", "wait=soon", "respond-async"])
    def test_unknown_preference_is_ignored(self, served, prefer):
        _, client = served
        status, headers, _ = self.ask(client, get([f"Prefer: {prefer}"], target="/v1/jobs"))
        assert status == 200 and "preference-applied" not in headers

    def test_ended_job_answers_at_once(self, served):
        _, client = served
        job = client.run(SPEC, timeout=300)
        started = time.monotonic()
        _, headers, again = self.ask(
            client, get(["Prefer: wait=9"], target=f"/v1/jobs/{job['job_id']}")
        )
        assert time.monotonic() - started < 5
        assert again == job and headers["preference-applied"] == "wait=9"


def ask_raw(client, request: bytes) -> tuple[int, dict, bytes]:
    with socket.create_connection((client.host, client.port), timeout=30) as conn:
        conn.sendall(request)
        with conn.makefile("rb") as stream:
            return read_response(stream)


class TestReturnRepresentation:
    """``Prefer: return=representation`` puts an ended job in its POST."""

    @staticmethod
    def post(spec, *headers: str) -> bytes:
        body = json.dumps(spec).encode()
        lines = ["POST /v1/jobs HTTP/1.1", "Host: localhost", *headers]
        lines += [f"Content-Length: {len(body)}", "", ""]
        return "\r\n".join(lines).encode("latin-1") + body

    def test_hit_post_is_the_job_document(self, served):
        _, client = served
        cold = client.run(SPEC, timeout=300)
        request = self.post(SPEC, "Prefer: return=representation")
        status, headers, raw = ask_raw(client, request)
        assert status == 200
        assert headers["preference-applied"] == "return=representation"
        job = json.loads(raw)
        assert (job["state"], job["cached"]) == ("done", True)
        assert job["report"] == cold["report"]
        assert client._exchange("GET", f"/v1/jobs/{job['job_id']}", None, {}) == (200, raw)

    @pytest.mark.parametrize("prefer", [None, "return=minimal", "wait=1"])
    def test_hit_post_without_it_is_unchanged(self, served, prefer):
        _, client = served
        client.run(SPEC, timeout=300)
        extra = [f"Prefer: {prefer}"] if prefer else []
        status, headers, raw = ask_raw(client, self.post(SPEC, *extra))
        posted = json.loads(raw)
        assert status == 200
        assert set(posted) == {"job_id", "digest", "state", "deduplicated"}
        assert raw == (json.dumps(posted, sort_keys=True) + "\n").encode()
        assert (posted["state"], posted["deduplicated"]) == ("done", False)
        assert headers.get("preference-applied") == ("wait=1" if prefer == "wait=1" else None)

    def test_queued_job_answers_202_with_the_short_body(self, served):
        _, client = served
        with use_faults("serve.job:delay:delay=0.5"):
            request = self.post(SPEC, "Prefer: return=representation")
            status, headers, raw = ask_raw(client, request)
            posted = json.loads(raw)
            assert status == 202 and "preference-applied" not in headers
            assert set(posted) == {"job_id", "digest", "state", "deduplicated"}
            assert posted["state"] in ("queued", "running")
            client.wait(posted["job_id"], timeout=300)

    def test_job_that_ends_within_the_wait(self, served):
        _, client = served
        with use_faults("serve.job:delay:delay=0.3"):
            status, headers, raw = ask_raw(
                client, self.post(SPEC, "Prefer: return=representation, wait=9")
            )
        assert status == 200
        assert headers["preference-applied"] == "wait=9, return=representation"
        job = json.loads(raw)
        assert (job["state"], job["cached"]) == ("done", False)
        assert client._exchange("GET", f"/v1/jobs/{job['job_id']}", None, {}) == (200, raw)


class TestRunInOneRequest:
    @staticmethod
    def counted(client, monkeypatch) -> list:
        calls = []
        exchange = client._exchange

        def counting(method, path, body, headers):
            calls.append((method, path))
            return exchange(method, path, body, headers)

        monkeypatch.setattr(client, "_exchange", counting)
        return calls

    def test_hit_takes_one_request(self, served, monkeypatch):
        _, client = served
        cold = client.run(SPEC, timeout=300)
        calls = self.counted(client, monkeypatch)
        hit = client.run(SPEC, timeout=300)
        assert calls == [("POST", "/v1/jobs")]
        assert (hit["cached"], hit["report"]) == (True, cold["report"])
        assert hit == client.job(hit["job_id"])

    def test_cold_spec_returns_the_job_document(self, served):
        _, client = served
        with use_faults("serve.job:delay:delay=0.2"):
            job = client.run(SPEC, timeout=300)
        assert (job["state"], job["cached"]) == ("done", False)
        assert job == client.wait(job["job_id"], timeout=300) == client.job(job["job_id"])

    def test_wait_runs_on_when_the_post_wait_ran_out(self, served, monkeypatch):
        _, client = served
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S", 0.2)
        calls = self.counted(client, monkeypatch)
        with use_faults("serve.job:delay:delay=0.7"):
            job = client.run(SPEC, timeout=300)
        assert job["state"] == "done" and "report" in job
        assert calls[0] == ("POST", "/v1/jobs") and len(calls) >= 2
        assert set(calls[1:]) == {("GET", f"/v1/jobs/{job['job_id']}")}

    def test_failed_job_raises(self, served):
        _, client = served
        with use_faults("serve.job:error:p=1:count=9"):
            with pytest.raises(ServeError, match="failed"):
                client.run(SPEC, timeout=300)

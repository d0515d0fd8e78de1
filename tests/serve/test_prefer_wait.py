"""``Prefer: wait`` (RFC 7240 §4.3) on ``POST /v1/jobs`` and ``GET
/v1/jobs/<id>``: the answer waits until the job ends or the wait, capped
at ``_READ_TIMEOUT_S``, runs out, and says so in ``Preference-Applied``.
A preference the server does not know is ignored.
"""

import json
import socket
import time

import pytest

import repro.serve.server as server_module
from repro.pipeline import use_faults

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

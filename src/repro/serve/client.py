"""Stdlib HTTP client for the ``repro serve`` endpoint.

:class:`ServeClient` wraps :mod:`http.client` (no new deps) around the
``/v1`` API: submit a spec, wait for its job, fetch the
``repro-report/v1`` document.  :meth:`ServeClient.wait` asks the server
to hold each status answer until the job ends (``Prefer: wait``), so a
wait sends one request per 10 s (the server's cap), not one per poll.
:meth:`ServeClient.run` is the one-call path — submit, wait, return the
finished job (report included) — used by ``examples/serve_client.py``
and the CI smoke check.

Each thread of a client keeps one persistent connection to the server,
so a submit and its waits share one TCP connection and a client stays
safe to share between threads.  A request that finds its reused
connection closed by the server (which closes idle ones) before any
response byte arrived is sent once more on a new connection.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Mapping

from repro.api.spec import ExperimentSpec

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A non-2xx response (or a failed job) from the service."""

    def __init__(self, status: int, payload: Any):
        message = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServeClient:
    """One server endpoint, one persistent connection per calling thread
    (so a client is thread-safe to share)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8738, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    # -- transport ---------------------------------------------------------

    def close(self) -> None:
        """Close the calling thread's connection (the next request opens
        a new one)."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> tuple[int, bytes]:
        """Status and body of one request on the thread's connection."""
        conn = getattr(self._local, "conn", None)
        reused = conn is not None
        if not reused:
            conn = self._local.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        try:
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except ConnectionError:
                # Closed by the server while idle, before any response
                # byte: the request was never read, so it is safe to resend.
                if not reused:
                    raise
                self.close()
                return self._exchange(method, path, body, headers)
            raw = response.read()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, raw

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
        headers: Mapping[str, str] | None = None,
    ) -> Any:
        headers = dict(headers or {})
        if body is not None:
            headers["Content-Type"] = content_type
        status, raw = self._exchange(method, path, body, headers)
        payload = json.loads(raw) if raw else None
        if status >= 400:
            raise ServeError(status, payload)
        return payload

    # -- API ---------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def submit(self, spec: "ExperimentSpec | Mapping | str") -> dict:
        """POST a spec; returns ``{job_id, digest, state, deduplicated}``.

        ``spec`` may be an :class:`~repro.api.spec.ExperimentSpec`, its
        ``to_dict`` mapping, or a TOML document string.
        """
        if isinstance(spec, str):
            return self._request(
                "POST", "/v1/jobs", spec.encode(), content_type="application/toml"
            )
        if isinstance(spec, ExperimentSpec):
            spec = spec.to_dict()
        return self._request("POST", "/v1/jobs", json.dumps(dict(spec)).encode())

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        """Job status (includes ``report`` once done)."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def report(self, job_id: str) -> dict:
        """The bare ``repro-report/v1`` document for a finished job."""
        return self._request("GET", f"/v1/jobs/{job_id}/report")

    def wait(self, job_id: str, timeout: float = 600.0) -> dict:
        """Wait until the job is terminal; returns its final status.

        Each status request asks the server to answer once the job ends
        (``Prefer: wait``, for at most the time left and half the
        connection's timeout; the server caps it too).  Raises
        :class:`ServeError` on a failed job or :class:`TimeoutError` if
        the deadline passes first.
        """
        deadline = time.monotonic() + timeout
        while True:
            left = max(0, min(deadline - time.monotonic(), self.timeout / 2))
            job = self._request(
                "GET", f"/v1/jobs/{job_id}", headers={"Prefer": f"wait={left:.3f}"}
            )
            if job["state"] == "done":
                return job
            if job["state"] == "failed":
                raise ServeError(500, {"error": f"job {job_id} failed: {job['error']}"})
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {job['state']} after {timeout}s")

    def run(self, spec: "ExperimentSpec | Mapping | str", timeout: float = 600.0) -> dict:
        """Submit and wait; the returned job carries the full report."""
        submitted = self.submit(spec)
        return self.wait(submitted["job_id"], timeout=timeout)

"""Stdlib HTTP client for the ``repro serve`` endpoint.

:class:`ServeClient` speaks the one HTTP/1.1 dialect the server speaks
(RFC 9112 framing: JSON bodies sized by ``Content-Length`` on persistent
connections) over a plain socket, and wraps the ``/v1`` API: submit a
spec, wait for its job, fetch the ``repro-report/v1`` document.
:meth:`ServeClient.wait` asks the server to hold each status answer
until the job ends (``Prefer: wait``), so a wait sends one request per
10 s (the server's cap), not one per poll.  :meth:`ServeClient.run` is
the one-call path — submit, wait, return the finished job (report
included) — used by ``examples/serve_client.py`` and the CI smoke
check.  Its POST also asks for ``Prefer: return=representation`` (RFC
7240 §4.2), so a job that ends inside that request, a cache hit above
all, comes back whole in one round trip.

Each thread of a client keeps one persistent connection to the server
(a socket and one buffered reader), so a submit and its waits share one
TCP connection and a client stays safe to share between threads.  Each
request is written with one ``sendall``; its response is read as a
status line, the headers (only ``Content-Length`` and ``Connection``
matter) and exactly ``Content-Length`` body bytes.  The connection
closes after a ``Connection: close`` or HTTP/1.0 answer and after any
error.  A request that finds its reused connection closed by the server
(which closes idle ones) before any response byte arrived is sent once
more on a new connection.  Every socket operation times out after
``timeout`` seconds.  A transport failure raises an :class:`OSError`
(:class:`ConnectionError` for broken framing).
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from typing import Any, Mapping

from repro.api.spec import ExperimentSpec

__all__ = ["ServeClient", "ServeError"]

#: Longest status or header line a response may carry, and the most
#: header fields (the server's own limits on requests).
_MAX_LINE = 8192
_MAX_HEADERS = 100
#: Largest response body read (reports are kilobytes).
_MAX_BODY = 1 << 28
#: Characters a request target may not contain (``http.client``'s rule):
#: they would break the request line.
_BAD_TARGET = re.compile("[\x00-\x20\x7f]")


class ServeError(RuntimeError):
    """A non-2xx response (or a failed job) from the service."""

    def __init__(self, status: int, payload: Any):
        message = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


def _line(stream, what: str) -> bytes:
    line = stream.readline(_MAX_LINE + 1)
    if not line.endswith(b"\n"):
        raise ConnectionError(f"{what} cut short or longer than {_MAX_LINE} bytes")
    return line


def _read_response(stream) -> tuple[int, bytes, bool]:
    """Status, body and whether the server keeps the connection open,
    of the response at the head of ``stream``."""
    status_line = _line(stream, "status line")
    version, _, rest = status_line.partition(b" ")
    code = rest[:3]
    if (
        version not in (b"HTTP/1.1", b"HTTP/1.0")
        or not (code.isdigit() and rest[3:4] in (b" ", b"\r", b"\n"))
    ):
        raise ConnectionError(f"malformed status line: {status_line!r}")
    length = None
    options = b""
    for _ in range(_MAX_HEADERS + 1):
        line = _line(stream, "header line")
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.partition(b":")
        if not colon:
            raise ConnectionError(f"malformed header line: {line!r}")
        name = name.lower()
        if name == b"content-length":
            value = value.strip()
            length = int(value) if value.isdigit() and len(value) < 16 else -1
            if not 0 <= length <= _MAX_BODY:
                raise ConnectionError(f"malformed Content-Length: {value!r}")
        elif name == b"connection":
            options = value.lower()
    else:
        raise ConnectionError(f"more than {_MAX_HEADERS} header fields")
    if length is None:
        raise ConnectionError("response without Content-Length")
    body = stream.read(length)
    if len(body) < length:
        raise ConnectionError(f"body cut short: {len(body)} of {length} bytes")
    tokens = {token.strip() for token in options.split(b",")}
    keep_alive = b"close" not in tokens and (
        version == b"HTTP/1.1" or b"keep-alive" in tokens
    )
    return int(code), body, keep_alive


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
            sock, stream = conn
            stream.close()
            sock.close()

    def _connect(self) -> tuple[socket.socket, Any]:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> tuple[int, bytes]:
        """Status and body of one request on the thread's connection."""
        if _BAD_TARGET.search(path):
            raise ValueError(f"request target contains a control character: {path!r}")
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        request = (head + "\r\n").encode("latin-1") + (body or b"")
        conn = getattr(self._local, "conn", None)
        reused = conn is not None
        try:
            if not reused:
                conn = self._local.conn = self._connect()
            sock, stream = conn
            try:
                sock.sendall(request)
                # Peek, not read: the first response byte stays buffered.
                answered = stream.peek(1)
            except ConnectionError:
                if not reused:
                    raise
                answered = b""
            if not answered:
                # Closed by the server while idle, before any response
                # byte: the request was never read, so it is safe to
                # resend (once, on a new connection).
                if not reused:
                    raise ConnectionError("connection closed without a response")
                self.close()
                return self._exchange(method, path, body, headers)
            status, raw, keep_alive = _read_response(stream)
        except BaseException:
            self.close()
            raise
        if not keep_alive:
            self.close()
        return status, raw

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
        if 200 <= status < 300:
            return json.loads(raw) if raw else None
        # An error body need not be JSON (a proxy's error page).
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = raw.decode("utf-8", "replace")
        raise ServeError(status, payload)

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
        return self._post(spec)

    def _post(self, spec: "ExperimentSpec | Mapping | str", headers=None) -> dict:
        if isinstance(spec, str):
            body, content_type = spec.encode(), "application/toml"
        else:
            if isinstance(spec, ExperimentSpec):
                spec = spec.to_dict()
            body, content_type = json.dumps(dict(spec)).encode(), "application/json"
        return self._request("POST", "/v1/jobs", body, content_type, headers)

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        """Job status (includes ``report`` once done)."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def report(self, job_id: str) -> dict:
        """The bare ``repro-report/v1`` document for a finished job."""
        return self._request("GET", f"/v1/jobs/{job_id}/report")

    def _wait_left(self, deadline: float) -> str:
        """The ``Prefer: wait`` preference for a request sent now: the
        time left, at most half the connection's timeout."""
        return f"wait={max(0, min(deadline - time.monotonic(), self.timeout / 2)):.3f}"

    @staticmethod
    def _ended(job: dict) -> bool:
        """True once ``job`` is done; raises :class:`ServeError` if it failed."""
        if job["state"] == "failed":
            raise ServeError(500, {"error": f"job {job['job_id']} failed: {job['error']}"})
        return job["state"] == "done"

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
            job = self._request(
                "GET", f"/v1/jobs/{job_id}", headers={"Prefer": self._wait_left(deadline)}
            )
            if self._ended(job):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {job['state']} after {timeout}s")

    def run(self, spec: "ExperimentSpec | Mapping | str", timeout: float = 600.0) -> dict:
        """Submit and wait; the returned job carries the full report.

        The POST asks for the job itself once it has ended (``Prefer:
        return=representation``) and waits for that as :meth:`wait`
        does, so a cache hit, or a job that ends within the wait, takes
        one request.  :meth:`wait` runs only for a job still in flight.
        """
        deadline = time.monotonic() + timeout
        prefer = f"return=representation, {self._wait_left(deadline)}"
        job = self._post(spec, {"Prefer": prefer})
        # Only the job's representation carries "created"; a server that
        # ignored the preference answered the short submission document.
        if "created" in job and self._ended(job):
            return job
        return self.wait(job["job_id"], timeout=max(0.0, deadline - time.monotonic()))

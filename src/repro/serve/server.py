"""The ``repro serve`` front end: specs over HTTP, reports back.

A :class:`ReproServer` is an :func:`asyncio.start_server`-based
HTTP/1.1 endpoint (stdlib only — the protocol layer is hand-rolled,
~80 lines, because the service speaks exactly one dialect: small JSON
bodies, ``Connection: close``) over one shared
:class:`~repro.api.session.Session`:

* ``POST /v1/jobs`` — submit an :class:`~repro.api.spec.ExperimentSpec`
  as JSON (the ``to_dict`` document, optionally wrapped as
  ``{"spec": ...}``) or TOML (``Content-Type: application/toml``).
  Returns ``202`` with a job id.  Submissions are deduplicated **in
  flight** by ``spec.digest``: while an identical spec is queued or
  running, new submissions join its job (``deduplicated: true``)
  instead of computing twice.  A full queue answers ``503``.
* ``GET /v1/jobs`` / ``GET /v1/jobs/<id>`` — job status: state,
  timestamps, resilient-runner attempt count and, once done, the exact
  ``repro-report/v1`` document plus ``cached`` (True when the run
  replayed entirely from the artifact cache).
* ``GET /v1/jobs/<id>/report`` — the bare ``repro-report/v1`` JSON,
  byte-identical to what ``repro run --json`` prints for the same spec.
* ``GET /v1/healthz`` / ``GET /v1/stats`` — liveness, queue depth, and
  the session's cache counters (hits / misses / stores / quarantined).

Jobs run on a bounded thread pool through
:func:`~repro.pipeline.resilience.run_resilient` (in-process), so per-spec
``execution.retries`` and the ``serve.job`` fault-injection site
compose with the service exactly as they do with the CLI.  The pool is
adopted into the session, whose :meth:`~repro.api.session.Session.close`
tears both down deterministically.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

from repro.api.errors import SpecError
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.pipeline.faults import maybe_inject
from repro.pipeline.resilience import run_resilient
from repro.serve.jobs import Job, JobRegistry, QueueFull

__all__ = ["ReproServer", "ServerHandle"]

#: Default TCP port (chosen from the unassigned user range).
DEFAULT_PORT = 8738

_MAX_BODY = 8 << 20  # spec documents are small; bound hostile bodies
_TOML_TYPES = ("application/toml", "text/toml", "text/x-toml")


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ReproServer:
    """One service instance: HTTP front end + job registry + worker pool.

    Parameters
    ----------
    session:
        The shared :class:`~repro.api.session.Session` jobs run on; the
        server adopts its worker pool into it, so closing the session
        (which :meth:`shutdown` does unless ``own_session=False``)
        waits for running jobs and releases cache backends.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    workers:
        Worker threads executing jobs — the service's computation
        concurrency bound.
    queue_limit:
        Maximum jobs in flight (queued + running); submissions beyond
        it answer ``503`` so back-pressure is explicit, never unbounded
        memory.  Deduplicated submissions bypass the limit.
    retries:
        Default resilient-runner retry budget for jobs whose spec
        leaves ``execution.retries`` at 0.
    """

    def __init__(
        self,
        session: Session | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 2,
        queue_limit: int = 64,
        retries: int = 0,
        own_session: bool | None = None,
    ):
        self.session = session if session is not None else Session()
        self.own_session = own_session if own_session is not None else session is None
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_limit = queue_limit
        self.retries = retries
        self.registry = JobRegistry()
        self._executor = self.session.adopt(
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-serve")
        )
        self._futures: dict[str, Future] = {}
        self._server: asyncio.base_events.Server | None = None

    # -- job execution (worker threads) ------------------------------------

    def _counter_totals(self) -> dict[str, int]:
        totals = {"hits": 0, "misses": 0, "stores": 0, "quarantined": 0}
        for per_kind in self.session.cache_stats().values():
            for event in totals:
                totals[event] += per_kind.get(event, 0)
        return totals

    def _execute(self, job: Job) -> None:
        self.registry.mark_running(job.id)
        spec = job.spec

        def run_one(spec: ExperimentSpec) -> dict:
            maybe_inject("serve.job", spec.digest)
            return self.session.optimize(spec).to_json()

        # Per-job cache-counter delta: "cached" means the run re-read
        # everything and recomputed nothing.  Attribution is
        # best-effort when unrelated jobs run concurrently (counters
        # are session-wide), authoritative for back-to-back replays.
        before = self._counter_totals()
        [outcome] = run_resilient(
            run_one,
            [spec],
            workers=1,
            retries=max(spec.execution.retries, self.retries),
            on_error="skip",
        )
        if outcome.ok:
            after = self._counter_totals()
            cached = (
                after["misses"] == before["misses"]
                and after["stores"] == before["stores"]
                and after["hits"] > before["hits"]
            )
            self.registry.mark_done(job.id, outcome.value, outcome.attempts, cached)
        else:
            self.registry.mark_failed(job.id, outcome.error, outcome.attempts)
        self._futures.pop(job.id, None)

    def submit(self, spec: ExperimentSpec) -> tuple[Job, bool]:
        """Register a spec and (unless deduplicated) queue its job."""
        job, deduplicated = self.registry.submit(spec, limit=self.queue_limit)
        if not deduplicated:
            self._futures[job.id] = self._executor.submit(self._execute, job)
        return job, deduplicated

    # -- HTTP plumbing -----------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        try:
            method, target, _version = request_line.split(None, 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _HttpError(400, f"malformed Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY:
            raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], headers, body

    @staticmethod
    def _response(status: int, payload: Any) -> bytes:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode("latin-1") + body

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                method, path, headers, body = await self._read_request(reader)
                status, payload = await self._route(method, path, headers, body)
            except _HttpError as error:
                status, payload = error.status, {"error": error.message}
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as error:  # never let one request kill the loop
                status = 500
                payload = {"error": f"{type(error).__name__}: {error}"}
            writer.write(self._response(status, payload))
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # -- routes ------------------------------------------------------------

    def _parse_spec(self, headers: dict[str, str], body: bytes) -> ExperimentSpec:
        if not body:
            raise _HttpError(400, "missing request body (spec JSON or TOML)")
        content_type = headers.get("content-type", "application/json")
        content_type = content_type.split(";", 1)[0].strip().lower()
        try:
            if content_type in _TOML_TYPES:
                return ExperimentSpec.from_toml(body.decode())
            payload = json.loads(body)
            if not isinstance(payload, dict):
                raise _HttpError(400, "spec body must be a JSON object")
            if isinstance(payload.get("spec"), dict):
                payload = payload["spec"]
            return ExperimentSpec.from_dict(payload)
        except _HttpError:
            raise
        except (SpecError, ValueError, UnicodeDecodeError) as error:
            raise _HttpError(400, f"invalid spec: {error}")

    async def _route(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, Any]:
        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            return 200, {"status": "ok"}
        if path == "/v1/stats":
            if method != "GET":
                raise _HttpError(405, "stats is GET-only")
            return 200, self.stats()
        if path == "/v1/jobs":
            if method == "GET":
                return 200, {"jobs": [j.to_json() for j in self.registry.jobs()]}
            if method != "POST":
                raise _HttpError(405, "jobs accepts GET and POST")
            spec = self._parse_spec(headers, body)
            try:
                job, deduplicated = self.submit(spec)
            except QueueFull as error:
                raise _HttpError(503, str(error))
            return 202, {
                "job_id": job.id,
                "digest": job.digest,
                "state": job.state,
                "deduplicated": deduplicated,
            }
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise _HttpError(405, "job status is GET-only")
            rest = path[len("/v1/jobs/") :]
            job_id, _, tail = rest.partition("/")
            job = self.registry.get(job_id)
            if job is None:
                raise _HttpError(404, f"unknown job {job_id!r}")
            if tail == "report":
                if job.report is None:
                    raise _HttpError(
                        409, f"job {job_id} is {job.state}; no report yet"
                    )
                return 200, job.report
            if tail:
                raise _HttpError(404, f"unknown job resource {tail!r}")
            return 200, job.to_json(include_report=True)
        raise _HttpError(404, f"unknown path {path!r}")

    def stats(self) -> dict:
        """The ``/v1/stats`` document."""
        counts = self.registry.counts()
        return {
            "jobs": counts,
            "queue": {
                "depth": counts["queued"] + counts["running"],
                "limit": self.queue_limit,
                "workers": self.workers,
            },
            "cache": {
                "totals": self._counter_totals(),
                "by_kind": self.session.cache_stats(),
                "dir": self.session.cache_dir,
                "storage": self.session.storage,
            },
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (resolves :attr:`port` when 0)."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, cancel queued jobs, wait for running ones."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel jobs still queued behind the pool; running jobs finish.
        for job_id, future in list(self._futures.items()):
            if future.cancel():
                self.registry.mark_failed(job_id, "cancelled at shutdown", 0)
                self._futures.pop(job_id, None)
        loop = asyncio.get_running_loop()
        if self.own_session:
            # Session.close shuts the adopted executor down (waiting
            # for in-flight jobs) and releases cache backends.
            await loop.run_in_executor(None, self.session.close)
        else:
            await loop.run_in_executor(
                None, lambda: self._executor.shutdown(wait=True)
            )

    async def _serve_until(self, stop_event: asyncio.Event) -> None:
        await self.start()
        try:
            await stop_event.wait()
        finally:
            await self.stop()

    def run(self, announce=print) -> None:
        """Blocking entry point (the CLI): serve until SIGINT/SIGTERM."""

        async def main() -> None:
            stop_event = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop_event.set)
            await self.start()
            if announce is not None:
                announce(
                    f"repro serve listening on http://{self.host}:{self.port} "
                    f"(workers={self.workers}, queue_limit={self.queue_limit}, "
                    f"cache_dir={self.session.cache_dir or '<memory>'})"
                )
            try:
                await stop_event.wait()
            finally:
                await self.stop()

        asyncio.run(main())

    def run_in_thread(self) -> "ServerHandle":
        """Start in a daemon thread; returns a :class:`ServerHandle`.

        The embedding/test entry point: the handle reports the bound
        port once ready and stops the server (waiting for running
        jobs) from any thread.
        """
        handle = ServerHandle(self)
        handle._start()
        return handle


class ServerHandle:
    """A running :class:`ReproServer` in a background thread."""

    def __init__(self, server: ReproServer):
        self.server = server
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )

    def _main(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            try:
                await self.server.start()
            finally:
                self._ready.set()  # release waiters even on bind failure
            try:
                await self._stop_event.wait()
            finally:
                await self.server.stop()

        try:
            asyncio.run(main())
        except BaseException as error:
            self._error = error
            self._ready.set()

    def _start(self) -> None:
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if not self._ready.is_set():
            raise RuntimeError("server thread failed to start in 30s")

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, timeout: float | None = 60) -> None:
        """Request shutdown and join the server thread."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

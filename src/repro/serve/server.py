"""The ``repro serve`` front end: specs over HTTP, reports back.

A :class:`ReproServer` is an :func:`asyncio.start_server`-based
HTTP/1.1 endpoint (stdlib only — the protocol layer is hand-rolled,
~150 lines, because the service speaks exactly one dialect: small JSON
bodies framed by ``Content-Length`` on persistent connections) over one
shared :class:`~repro.api.session.Session`:

* ``POST /v1/jobs`` — submit an :class:`~repro.api.spec.ExperimentSpec`
  as JSON (the ``to_dict`` document, optionally wrapped as
  ``{"spec": ...}``) or TOML (``Content-Type: application/toml``).
  Answers ``{job_id, digest, state, deduplicated}``.  Submissions are
  deduplicated **in flight** by ``spec.digest``: while an identical
  spec is queued or running, new submissions join its job
  (``deduplicated: true``) instead of computing twice.  Otherwise a
  spec the artifact cache holds in full is replayed at once, inside
  the request, and answered with ``state: "done"`` (its job ``cached:
  true``, one attempt); any other spec is queued.  The status is
  ``202`` while the job is queued or running and ``200`` once it has
  ended.  A full queue answers ``503``; a cache hit is answered even
  then.
* ``GET /v1/jobs`` / ``GET /v1/jobs/<id>`` — job status: state,
  timestamps, resilient-runner attempt count and, once done, the exact
  ``repro-report/v1`` document plus ``cached`` (True when the run
  replayed entirely from the artifact cache).
* ``Prefer: wait=<seconds>`` (RFC 7240 §4.3) on ``POST /v1/jobs`` or
  ``GET /v1/jobs/<id>`` holds the answer until the job ends or the
  wait, capped at ``_READ_TIMEOUT_S``, runs out; the response then
  carries ``Preference-Applied``.  A client waits for a job with one
  such request instead of polling.
* ``Prefer: return=representation`` (RFC 7240 §4.2) on ``POST
  /v1/jobs``: once the job has ended (a cache hit, or a job that ended
  within the wait), the answer is the body ``GET /v1/jobs/<id>`` would
  send, report included, and ``Preference-Applied`` lists it.  So a hit
  takes one request.
* ``GET /v1/jobs/<id>/report`` — the bare ``repro-report/v1`` JSON,
  byte-identical to what ``repro run --json`` prints for the same spec.
* ``GET /v1/healthz`` / ``GET /v1/stats`` — liveness, queue depth, and
  the session's cache counters (hits / misses / stores / quarantined).

A cache hit is replayed on the event-loop thread under
:func:`~repro.pipeline.context.replay_only`, which raises
:class:`~repro.pipeline.context.NotCached` at the first artifact it
would compute; the spec is then queued, and no stage runs twice.  A
spec with a ``trace.path`` is always queued, as its replay would read
the whole trace file on the loop.  Queued jobs run on a bounded thread pool through
:func:`~repro.pipeline.resilience.run_resilient` (in-process), so per-spec
``execution.retries`` and the ``serve.job`` fault-injection site
compose with the service exactly as they do with the CLI (a replayed
hit fires neither).  The pool is adopted into the session, whose
:meth:`~repro.api.session.Session.close` tears both down
deterministically.

Connections persist as RFC 9112 §9.3 describes: an HTTP/1.1 request
keeps its connection open unless it sends ``Connection: close``, an
HTTP/1.0 one closes it unless it sends ``keep-alive``, and pipelined
requests are answered in order.  A connection closes without a response
when it is idle for ``_READ_TIMEOUT_S`` or its client closes it between
requests, and after a refused request (broken framing, 408) or a 500.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

# A job's compute path.  The packages import lazily, so without these a
# server would pay for them inside its first job rather than before it
# starts listening.
import repro.api.report  # noqa: F401
import repro.cache.engine  # noqa: F401
import repro.core.optimizer  # noqa: F401
import repro.search.batched  # noqa: F401
from repro.api.errors import SpecError
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.pipeline.artifact_cache import cache_events, replayed
from repro.pipeline.context import replay_only
from repro.pipeline.faults import maybe_inject
from repro.pipeline.resilience import run_resilient
from repro.serve.jobs import Job, JobRegistry, QueueFull

__all__ = ["ReproServer", "ServerHandle"]

#: Default TCP port (chosen from the unassigned user range).
DEFAULT_PORT = 8738

_MAX_BODY = 8 << 20  # spec documents are small; bound hostile bodies
#: Header fields a request may carry (``http.client``'s own cap).
_MAX_HEADERS = 100
#: Longest request line or header line, line ending included.
_MAX_LINE = 8192
#: After an over-limit request is refused, what is left of it is read
#: and dropped (at most this much, for at most this long) before the
#: connection closes: closing on unread input resets the connection,
#: which can destroy the error response before the client reads it.
_LINGER_BYTES = 1 << 20
_LINGER_S = 1.0
#: Seconds a connection may stay idle between requests before it closes
#: silently, and seconds a client has to send the rest of a request once
#: its first byte arrived (line, headers and body) before it is answered
#: 408 and the connection closes.
_READ_TIMEOUT_S = 10.0
#: A header field name (an RFC 9110 token).
_FIELD_NAME = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
#: The value of a ``Prefer: wait`` preference: seconds, a decimal allowed.
_WAIT_SECONDS = re.compile(r"[0-9]+(?:\.[0-9]*)?")
_TOML_TYPES = ("application/toml", "text/toml", "text/x-toml")


async def _within(seconds: float, awaitable):
    """``await awaitable``, raising :class:`asyncio.TimeoutError` after
    ``seconds``.  Where :func:`asyncio.timeout` exists (3.11+) it runs in
    the calling task, not in the extra task Python 3.11's ``wait_for``
    creates: that task costs about three more event-loop turns per call,
    and each turn's ``select`` releases the GIL to a running job's thread,
    which may keep it for the 5 ms switch interval."""
    if not hasattr(asyncio, "timeout"):
        return await asyncio.wait_for(awaitable, seconds)
    async with asyncio.timeout(seconds):
        return await awaitable


def _preferences(headers: dict[str, str]) -> dict[str, str]:
    """The preferences of a request's ``Prefer`` header by lower-case
    name (RFC 7240 §2): only the first instance of a name counts, and
    parameters after ``;`` are dropped."""
    preferences: dict[str, str] = {}
    for preference in headers.get("prefer", "").split(","):
        name, _, value = preference.split(";", 1)[0].partition("=")
        preferences.setdefault(name.strip().lower(), value.strip().strip('"'))
    return preferences


def _applied(preferences: list[str]) -> tuple[tuple[str, str], ...]:
    """The ``Preference-Applied`` header listing ``preferences``, if any."""
    return (("Preference-Applied", ", ".join(preferences)),) if preferences else ()


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
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
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
        memory.  Deduplicated submissions and cache hits bypass the
        limit.
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
        #: Handler tasks of the open connections (see :meth:`stop`).
        self._connections: set[asyncio.Task] = set()

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

        # "cached": the job's attempts replayed everything from the
        # cache, counted apart from concurrent jobs on other threads.
        with cache_events() as events:
            [outcome] = run_resilient(
                run_one,
                [spec],
                workers=1,
                retries=max(spec.execution.retries, self.retries),
                on_error="skip",
            )
        if outcome.ok:
            self.registry.mark_done(
                job.id, outcome.value, outcome.attempts, replayed(events)
            )
        else:
            self.registry.mark_failed(job.id, outcome.error, outcome.attempts)
        self._futures.pop(job.id, None)

    def _replay(self, spec: ExperimentSpec) -> Job | None:
        """The spec's job, replayed from the cache alone on the calling
        thread and registered done, or ``None`` to queue it."""
        started = time.time()
        try:
            with replay_only(), cache_events() as events:
                report = self.session.optimize(spec).to_json()
        except Exception:
            # NotCached: some stage would compute.  Any other failure is
            # the queued run's to retry and to report.
            return None
        return self.registry.add_done(spec, report, started, replayed(events))

    def submit(self, spec: ExperimentSpec) -> tuple[Job, bool]:
        """Register a spec: join its job in flight, else answer it from
        the cache on this thread, else queue its job."""
        job = self.registry.join(spec)
        if job is not None:
            return job, True
        job = self._replay(spec)
        if job is not None:
            return job, False
        job, deduplicated = self.registry.submit(spec, limit=self.queue_limit)
        if not deduplicated:
            self._futures[job.id] = self._executor.submit(self._execute, job)
        return job, deduplicated

    # -- HTTP plumbing -----------------------------------------------------

    @staticmethod
    async def _read_line(
        reader: asyncio.StreamReader, what: str, start: bytes = b""
    ) -> str:
        """The next line; ``start`` is its first byte if already read."""
        try:
            line = start if start == b"\n" else start + await reader.readline()
        except ValueError:  # longer than the stream's buffer
            line = None
        if line is None or len(line) > _MAX_LINE:
            raise _HttpError(431, f"{what} exceeds {_MAX_LINE} bytes")
        return line.decode("latin-1")

    async def _read_request(self, reader: asyncio.StreamReader, first: bytes):
        """The request whose first byte (already read) is ``first``, and
        whether its connection stays open after the response."""
        request_line = (await self._read_line(reader, "request line", first)).strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        try:
            method, target, version = request_line.split(None, 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        headers: dict[str, str] = {}
        for count in range(_MAX_HEADERS + 1):
            line = await self._read_line(reader, "header line")
            if line in ("\r\n", "\n"):
                break
            if not line:
                raise _HttpError(400, "connection closed inside the headers")
            if count == _MAX_HEADERS:
                raise _HttpError(431, f"more than {_MAX_HEADERS} header fields")
            name, colon, value = line.partition(":")
            if not colon or not _FIELD_NAME.fullmatch(name):
                raise _HttpError(400, f"malformed header line: {line.rstrip()!r}")
            name, value = name.lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _HttpError(400, "conflicting Content-Length headers")
            headers[name] = value
        # A body framed any other way would be read as the next request.
        if "transfer-encoding" in headers:
            raise _HttpError(400, "Transfer-Encoding is not supported; send Content-Length")
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _HttpError(400, f"malformed Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY:
            raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        options = {o.strip().lower() for o in headers.get("connection", "").split(",")}
        keep_alive = "close" not in options and (
            version == "HTTP/1.1" or "keep-alive" in options
        )
        return (method.upper(), target.split("?", 1)[0], headers, body), keep_alive

    @staticmethod
    async def _linger(reader: asyncio.StreamReader) -> None:
        """Drop what is left of a refused request (see ``_LINGER_BYTES``)."""

        async def drain() -> None:
            left = _LINGER_BYTES
            while left > 0:
                chunk = await reader.read(min(left, 1 << 16))
                if not chunk:
                    return
                left -= len(chunk)

        try:
            await asyncio.wait_for(drain(), _LINGER_S)
        except (asyncio.TimeoutError, ConnectionError):
            pass

    @staticmethod
    def _response(status: int, payload: Any, keep_alive: bool, headers=()) -> bytes:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in headers)
            + f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        return head.encode("latin-1") + body

    async def _respond(self, reader, writer) -> bool:
        """Answer the connection's next request; True to await another."""
        try:
            first = await _within(_READ_TIMEOUT_S, reader.readexactly(1))
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
            return False  # idle or closed between requests: nothing owed
        refused = keep_alive = False
        headers = ()
        try:
            try:
                request, keep_alive = await _within(
                    _READ_TIMEOUT_S, self._read_request(reader, first)
                )
            except asyncio.TimeoutError:
                raise _HttpError(
                    408, f"request not received within {_READ_TIMEOUT_S:g} s"
                ) from None
            except _HttpError:
                refused = True
                raise
            status, payload, headers = await self._route(*request)
        except _HttpError as error:
            status, payload = error.status, {"error": error.message}
        except (asyncio.IncompleteReadError, ConnectionError):
            return False
        except Exception as error:  # never let one request kill the loop
            status, keep_alive = 500, False
            payload = {"error": f"{type(error).__name__}: {error}"}
        writer.write(self._response(status, payload, keep_alive, headers))
        await writer.drain()
        if refused:
            await self._linger(reader)
        return keep_alive

    async def _handle(self, reader, writer) -> None:
        """One connection: answer its requests in order, then close.

        A client that went away, and a connection :meth:`stop` cancels,
        close quietly: a handler that ends cancelled would make asyncio
        log a ``CancelledError`` traceback.
        """
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while await self._respond(reader, writer):
                pass
            writer.close()
            await writer.wait_closed()
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            writer.close()
            self._connections.discard(task)

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
        except (SpecError, ValueError, UnicodeDecodeError, RecursionError) as error:
            # RecursionError: nesting too deep for the JSON/TOML parser.
            raise _HttpError(400, f"invalid spec: {error}")

    async def _route(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, Any, tuple[tuple[str, str], ...]]:
        """Status, payload and extra response headers of a request."""
        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            return 200, {"status": "ok"}, ()
        if path == "/v1/stats":
            if method != "GET":
                raise _HttpError(405, "stats is GET-only")
            return 200, self.stats(), ()
        if path == "/v1/jobs":
            if method == "GET":
                return 200, {"jobs": [j.to_json() for j in self.registry.jobs()]}, ()
            if method != "POST":
                raise _HttpError(405, "jobs accepts GET and POST")
            spec = self._parse_spec(headers, body)
            try:
                job, deduplicated = self.submit(spec)
            except QueueFull as error:
                raise _HttpError(503, str(error))
            preferences = _preferences(headers)
            applied = await self._waited(job, preferences)
            state = job.state
            ended = state not in ("queued", "running")
            if ended and preferences.get("return", "").lower() == "representation":
                # RFC 7240 §4.2: the ended job, as GET /v1/jobs/<id> has it.
                applied.append("return=representation")
                return 200, job.to_json(include_report=True), _applied(applied)
            payload = {
                "job_id": job.id,
                "digest": job.digest,
                "state": state,
                "deduplicated": deduplicated,
            }
            return 200 if ended else 202, payload, _applied(applied)
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
                return 200, job.report, ()
            if tail:
                raise _HttpError(404, f"unknown job resource {tail!r}")
            applied = await self._waited(job, _preferences(headers))
            return 200, job.to_json(include_report=True), _applied(applied)
        raise _HttpError(404, f"unknown path {path!r}")

    async def _waited(self, job: Job, preferences: dict[str, str]) -> list[str]:
        """Hold the answer about ``job`` as a ``wait`` preference asks,
        until the job ends or the wait, capped at ``_READ_TIMEOUT_S``,
        runs out; the preferences applied (none without a valid wait)."""
        value = preferences.get("wait", "")
        if not _WAIT_SECONDS.fullmatch(value):
            return []  # none, or a form RFC 7240 lets this server ignore
        seconds = min(float(value), _READ_TIMEOUT_S)
        # _execute drops a job's future only once the job has ended, so
        # a job without one is over already (or was never queued).
        future = self._futures.get(job.id)
        if future is not None and seconds > 0:
            # wait() neither raises the job's outcome nor cancels the
            # job when the time runs out.
            await asyncio.wait([asyncio.wrap_future(future)], timeout=seconds)
        return [f"wait={seconds:g}"]

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
        """Stop accepting, close open connections, cancel queued jobs,
        wait for running ones."""
        if self._server is not None:
            self._server.close()
            connections = list(self._connections)
            for task in connections:
                task.cancel()
            await asyncio.gather(*connections, return_exceptions=True)
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

"""Job registry for the optimization service: state + in-flight dedup.

A job is one submitted :class:`~repro.api.spec.ExperimentSpec` moving
through ``queued -> running -> done | failed``.  The registry is the
service's single source of truth and its deduplication table: while a
spec's job is still in flight (queued or running), every further
submission of the *same spec* — same ``spec.digest``, however it was
serialized — coalesces onto that job instead of spawning a second
computation.  This mirrors, at submission time, how the
:class:`~repro.pipeline.artifact_cache.ArtifactCache` already
deduplicates at rest: the cache collapses identical work across time,
the registry collapses it across concurrent clients.

Dedup is strictly *in flight*: once a job reaches a terminal state its
digest leaves the table, and a re-submission creates a fresh job that
replays through the artifact cache (reporting ``cached: true`` when it
recomputed nothing).  Failed jobs therefore never poison later
submissions.

All methods are thread-safe; the server calls them from the asyncio
loop and from worker threads.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.api.spec import ExperimentSpec

__all__ = ["JOB_STATES", "Job", "JobRegistry", "QueueFull"]


class QueueFull(RuntimeError):
    """Submission rejected: the in-flight queue is at its limit."""

#: Lifecycle states, in order of progress.
JOB_STATES = ("queued", "running", "done", "failed")

#: States in which a job still deduplicates new submissions.
_IN_FLIGHT = ("queued", "running")


@dataclass
class Job:
    """One submitted spec and everything the service knows about it."""

    id: str
    digest: str
    spec: ExperimentSpec
    state: str = "queued"
    created: float = 0.0
    started: float | None = None
    finished: float | None = None
    #: Execution attempts the resilient runner charged (>= 1 when done).
    attempts: int = 0
    #: Submissions coalesced onto this job by in-flight dedup.
    submissions: int = 1
    error: str | None = None
    #: The exact ``repro-report/v1`` document, once ``state == "done"``.
    report: dict | None = field(default=None, repr=False)
    #: Whether the run recomputed nothing (served entirely from cache):
    #: exact per job, counted from this job's own cache events even
    #: while other jobs run concurrently.
    cached: bool | None = None

    def to_json(self, include_report: bool = False) -> dict:
        """The job as the ``/v1/jobs`` endpoints serialize it."""
        payload = {
            "job_id": self.id,
            "digest": self.digest,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "attempts": self.attempts,
            "submissions": self.submissions,
            "error": self.error,
            "cached": self.cached,
        }
        if include_report and self.report is not None:
            payload["report"] = self.report
        return payload


class JobRegistry:
    """Thread-safe job table with in-flight dedup by spec digest."""

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, str] = {}  # spec digest -> job id
        self._ids = itertools.count(1)

    # -- submission --------------------------------------------------------

    def submit(
        self, spec: ExperimentSpec, limit: int | None = None
    ) -> tuple[Job, bool]:
        """Register a submission; returns ``(job, deduplicated)``.

        ``deduplicated`` is True when the spec coalesced onto an
        already in-flight job instead of creating a new one.  With a
        ``limit``, a submission that would create a *new* job while
        ``limit`` jobs are already in flight raises :class:`QueueFull`
        (deduplicated submissions always succeed — they add no work).
        """
        digest = spec.digest
        with self._lock:
            job = self._join(digest)
            if job is not None:
                return job, True
            if limit is not None and len(self._inflight) >= limit:
                raise QueueFull(
                    f"{len(self._inflight)} jobs in flight (limit {limit})"
                )
            job = self._add(spec, created=self._clock())
            self._inflight[digest] = job.id
            return job, False

    def join(self, spec: ExperimentSpec) -> Job | None:
        """The spec's in-flight job, with this submission counted on it,
        or ``None`` when no identical spec is queued or running."""
        digest = spec.digest
        with self._lock:
            return self._join(digest)

    def add_done(
        self, spec: ExperimentSpec, report: dict, started: float, cached: bool
    ) -> Job:
        """Register a job that already ran, in one attempt, on the
        caller's thread from ``started`` until now: a cache hit the
        server answered without queueing it.  It never enters the dedup
        table."""
        with self._lock:
            return self._add(
                spec,
                state="done",
                created=started,
                started=started,
                finished=self._clock(),
                attempts=1,
                report=report,
                cached=cached,
            )

    def _join(self, digest: str) -> Job | None:
        job_id = self._inflight.get(digest)
        if job_id is None or self._jobs[job_id].state not in _IN_FLIGHT:
            return None
        job = self._jobs[job_id]
        job.submissions += 1
        return job

    def _add(self, spec: ExperimentSpec, **fields) -> Job:
        job = Job(
            id=f"job-{next(self._ids):06d}", digest=spec.digest, spec=spec, **fields
        )
        self._jobs[job.id] = job
        return job

    # -- transitions -------------------------------------------------------

    def mark_running(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.state = "running"
            job.started = self._clock()

    def _finish(self, job_id: str, state: str) -> None:
        """Publish a terminal ``state`` once the job's fields are set.

        The event loop reads jobs without the lock, so the state is
        assigned last: a reader that sees ``done`` or ``failed`` also
        sees the report or error the transition carries.
        """
        job = self._jobs[job_id]
        job.finished = self._clock()
        job.state = state
        # Drop the dedup entry only if it still points at this job (a
        # newer submission may have replaced it already).
        if self._inflight.get(job.digest) == job_id:
            del self._inflight[job.digest]

    def mark_done(
        self, job_id: str, report: dict, attempts: int, cached: bool
    ) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.report = report
            job.attempts = attempts
            job.cached = cached
            self._finish(job_id, "done")

    def mark_failed(self, job_id: str, error: str, attempts: int) -> None:
        with self._lock:
            job = self._jobs[job_id]
            job.error = error
            job.attempts = attempts
            self._finish(job_id, "failed")

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All jobs, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """Jobs per lifecycle state (every state present, zero-filled)."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def in_flight(self) -> int:
        """Queued + running jobs (the dedup table's size)."""
        with self._lock:
            return len(self._inflight)

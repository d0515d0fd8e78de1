"""Resilient execution: retries, timeouts, crash recovery.

:func:`run_resilient` is the fault-tolerant ``map`` underneath
:meth:`PipelineContext.map <repro.pipeline.context.PipelineContext.map>`
— the one fan-out of campaigns, Table 3 rows and the sharded profiler —
and ``repro serve`` calls it in-process for each job.  With
``workers <= 1`` it runs in-process — no pool, no scratch directory —
and otherwise on a process pool.  It adds, over a plain map:

* **Bounded retries** with exponential backoff and deterministic
  jitter.  A task attempt that raises is retried up to ``retries``
  times; every attempt executes under
  :func:`repro.pipeline.faults.attempt_scope`, so seeded fault draws
  progress deterministically across retries.
* **Per-task timeouts** (pool only).  A task that exceeds
  ``task_timeout`` seconds is failed, its (possibly stuck) worker pool
  is torn down and rebuilt, and every unfinished task is resubmitted.
* **Crash recovery** (pool only).  A worker death (OOM kill,
  ``os._exit``, signal) breaks the whole ``ProcessPoolExecutor``; the
  runner rebuilds the pool and resubmits only the unfinished tasks.  Tasks that were
  mid-execution when the pool died (tracked by start markers the
  workers drop in a scratch directory) are charged a failed attempt;
  tasks still queued are resubmitted free of charge.
* **An ``on_error`` policy** for tasks that exhaust their budget:
  ``"raise"`` aborts the run (default), ``"skip"`` records the failure
  in the task's :class:`TaskOutcome` and continues, ``"retry"`` is
  ``"raise"`` with a minimum retry budget of
  :data:`RETRY_POLICY_MIN_RETRIES` when ``retries`` was left at 0.
* **Clean ``KeyboardInterrupt`` handling**: pending futures are
  cancelled, the pool is shut down without orphaning workers, and the
  interrupt is re-raised.

Results are returned as :class:`TaskOutcome` rows in item order, so the
caller decides how partial results surface (campaign rows carry
``status``/``error``/``attempts``; the sharded profiler refuses
partials outright — a partial profile is not a profile).
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.pipeline.faults import _draw, attempt_scope

__all__ = [
    "ON_ERROR_CHOICES",
    "TaskOutcome",
    "run_resilient",
]

#: Admissible ``on_error`` policies.
ON_ERROR_CHOICES = ("raise", "skip", "retry")

#: Retry budget ``on_error="retry"`` guarantees when ``retries`` is 0.
RETRY_POLICY_MIN_RETRIES = 3

#: Pool rebuilds (worker deaths + timeouts) tolerated per run before
#: the underlying error propagates regardless of policy — a backstop
#: against a crash loop that charges no single task.
MAX_POOL_REBUILDS = 16


@dataclass
class TaskOutcome:
    """What happened to one item: a value, or a recorded failure."""

    value: Any = None
    status: str = "ok"  # "ok" | "failed"
    error: str | None = None
    #: Execution attempts that *began* (>= failures; a worker-death
    #: collateral restart bumps this without failing the task).
    attempts: int = 0
    #: Attempts that ended in an exception, a timeout, or a dead worker.
    failures: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _effective_retries(retries: int, on_error: str) -> int:
    if on_error not in ON_ERROR_CHOICES:
        raise ValueError(
            f"unknown on_error policy {on_error!r}; choose from "
            f"{', '.join(ON_ERROR_CHOICES)}"
        )
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if on_error == "retry":
        return max(retries, RETRY_POLICY_MIN_RETRIES)
    return retries


def _backoff(key: str, failures: int, base: float, cap: float) -> float:
    """Exponential backoff with deterministic jitter in ``[0, 25%)``.

    Jitter decorrelates retry storms across tasks without introducing
    nondeterminism: it is a pure hash of the task key and attempt.
    """
    if base <= 0:
        return 0.0
    delay = base * (2.0 ** max(failures - 1, 0))
    jitter = 1.0 + 0.25 * _draw("backoff", failures, key)
    return min(delay * jitter, cap)


def _format_error(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def _run_attempt(fn, item, attempt: int, marker: str | None):
    """Worker-side wrapper: start marker + ambient attempt index.

    The marker file exists exactly while the attempt executes — a
    normal return *or* a Python-level exception removes it, so after a
    pool break the markers left behind identify the tasks that were
    mid-flight when their worker died.
    """
    if marker is not None:
        Path(marker).touch()
    try:
        with attempt_scope(attempt):
            return fn(item)
    finally:
        if marker is not None:
            try:
                os.unlink(marker)
            except OSError:
                pass


def _run_serial(fn, items, budget, on_error, backoff_base, backoff_cap):
    """In-process execution: the pool's retries, backoff, attempt scope
    and ``on_error`` policy, minus timeouts and crash recovery — so
    serial and parallel runs stay bit-identical under one fault plan."""
    outcomes = []
    for index, item in enumerate(items):
        outcome = TaskOutcome()
        while True:
            attempt = outcome.attempts
            outcome.attempts += 1
            try:
                outcome.value = _run_attempt(fn, item, attempt, None)
                break
            except KeyboardInterrupt:
                raise
            except Exception as error:
                outcome.failures += 1
                outcome.error = _format_error(error)
                if outcome.failures <= budget:
                    time.sleep(
                        _backoff(f"{index}", outcome.failures, backoff_base, backoff_cap)
                    )
                    continue
                if on_error == "skip":
                    outcome.status = "failed"
                    break
                raise
        outcomes.append(outcome)
    return outcomes


class _PoolRunner:
    """One resilient pool execution (the state behind :func:`run_resilient`)."""

    def __init__(
        self,
        fn,
        items,
        workers,
        retries,
        task_timeout,
        on_error,
        backoff_base,
        backoff_cap,
        initializer,
        initargs,
    ):
        self.fn = fn
        self.items = list(items)
        self.workers = workers
        self.budget = _effective_retries(retries, on_error)
        self.task_timeout = task_timeout
        self.on_error = on_error
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.initializer = initializer
        self.initargs = initargs
        self.outcomes = [TaskOutcome() for _ in self.items]
        self.futures: dict[int, Any] = {}
        self.not_before: dict[int, float] = {}
        self.pool: ProcessPoolExecutor | None = None
        self.rebuilds = 0
        self.marker_dir: str | None = None

    # -- pool lifecycle ----------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=self.initializer,
            initargs=self.initargs,
        )

    def _teardown_pool(self, terminate: bool) -> None:
        if self.pool is None:
            return
        if terminate:
            # A stuck (timed-out) worker never drains its task, so a
            # plain shutdown would hang; reclaim the processes first.
            for process in list(getattr(self.pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            self.pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass
        self.pool = None

    # -- submission --------------------------------------------------------

    def _marker(self, index: int) -> str:
        return os.path.join(self.marker_dir, f"task-{index}")

    def _submit(self, index: int) -> None:
        attempt = self.outcomes[index].attempts
        self.outcomes[index].attempts += 1
        self.futures[index] = self.pool.submit(
            _run_attempt, self.fn, self.items[index], attempt, self._marker(index)
        )

    def _unfinished(self) -> list[int]:
        return [
            i
            for i, outcome in enumerate(self.outcomes)
            if outcome.status == "ok" and i in self.futures
        ]

    # -- failure bookkeeping -----------------------------------------------

    def _charge(self, index: int, error: str) -> None:
        """Record a failed attempt; finalize or queue a retry."""
        outcome = self.outcomes[index]
        outcome.failures += 1
        outcome.error = error
        if outcome.failures <= self.budget:
            self.not_before[index] = time.monotonic() + _backoff(
                f"{index}", outcome.failures, self.backoff_base, self.backoff_cap
            )
            return
        if self.on_error == "skip":
            outcome.status = "failed"
            self.futures.pop(index, None)
            return
        raise _TaskFailed(index, error)

    def _recover(self, waited_index: int, cause: str, terminate: bool) -> None:
        """Rebuild the pool and resubmit every unfinished task.

        Tasks whose start marker survived were mid-execution when the
        pool died: they are charged a failed attempt (their work is
        lost and their fault draws must progress past the attempt that
        killed them).  Queued-but-unstarted tasks resubmit free.
        """
        self.rebuilds += 1
        self._teardown_pool(terminate=terminate)
        if self.rebuilds > MAX_POOL_REBUILDS:
            raise BrokenProcessPool(
                f"gave up after {self.rebuilds - 1} pool rebuilds (last: {cause})"
            )
        started = {
            index
            for index in self._unfinished()
            if os.path.exists(self._marker(index)) or index == waited_index
        }
        for index in started:
            try:
                os.unlink(self._marker(index))
            except OSError:
                pass
        for index in sorted(started):
            self._charge(index, cause)
        self.pool = self._make_pool()
        for index in self._unfinished():
            if index not in self.not_before:
                self.not_before[index] = 0.0
            # Leave retry scheduling to the main loop; clear the dead
            # future so the task is seen as resubmittable.
            self.futures.pop(index, None)

    # -- main loop ---------------------------------------------------------

    def run(self) -> list[TaskOutcome]:
        with tempfile.TemporaryDirectory(prefix="repro-resilient-") as marker_dir:
            self.marker_dir = marker_dir
            self.pool = self._make_pool()
            try:
                for index in range(len(self.items)):
                    self._submit(index)
                self._drain()
            except KeyboardInterrupt:
                # Cancel what never started, stop feeding the pool, and
                # wait for in-flight tasks so no worker is orphaned.
                for future in self.futures.values():
                    future.cancel()
                self._teardown_pool(terminate=True)
                raise
            except _TaskFailed as failed:
                self._teardown_pool(terminate=False)
                raise RuntimeError(
                    f"task {failed.index} failed after "
                    f"{self.outcomes[failed.index].failures} attempt(s): "
                    f"{failed.error}"
                ) from None
            finally:
                self._teardown_pool(terminate=False)
        return self.outcomes

    def _drain(self) -> None:
        while True:
            pending = [
                i
                for i, outcome in enumerate(self.outcomes)
                if outcome.status == "ok" and outcome.value is None
                and (i in self.futures or i in self.not_before)
            ]
            # Tasks whose value is legitimately None finish through the
            # futures dict below, so track completion explicitly.
            pending = [
                i for i in pending if not getattr(self.outcomes[i], "_done", False)
            ]
            if not pending:
                return
            for index in pending:
                if index not in self.futures:
                    # A retry waiting out its backoff window.
                    delay = self.not_before.pop(index, 0.0) - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    self._submit(index)
            index = next(i for i in pending if i in self.futures or True)
            future = self.futures.get(index)
            if future is None:
                continue
            try:
                value = future.result(timeout=self.task_timeout)
            except FutureTimeoutError:
                self._recover(
                    index,
                    f"task timed out after {self.task_timeout:g}s",
                    terminate=True,
                )
                continue
            except BrokenProcessPool:
                self._recover(index, "worker process died", terminate=False)
                continue
            except KeyboardInterrupt:
                raise
            except Exception as error:
                self.futures.pop(index, None)
                self._charge(index, _format_error(error))
                continue
            outcome = self.outcomes[index]
            outcome.value = value
            outcome._done = True  # type: ignore[attr-defined]
            self.futures.pop(index, None)
            self.not_before.pop(index, None)


class _TaskFailed(Exception):
    """Internal: a task exhausted its budget under ``on_error != skip``."""

    def __init__(self, index: int, error: str):
        super().__init__(error)
        self.index = index
        self.error = error


def run_resilient(
    fn: Callable[[Any], Any],
    items: Sequence,
    workers: int,
    retries: int = 0,
    task_timeout: float | None = None,
    on_error: str = "raise",
    backoff_base: float = 0.05,
    backoff_cap: float = 2.0,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> list[TaskOutcome]:
    """Run ``fn`` over ``items``, resiliently.

    ``workers <= 1`` runs in-process: ``task_timeout``, ``initializer``
    and ``initargs`` do not apply, and an exhausted budget under a
    raising policy re-raises the task's own exception.  Otherwise ``fn``
    runs on a process pool and must be picklable (a top-level function
    or a :func:`functools.partial` of one).  Returns one
    :class:`TaskOutcome` per item, in item order; a row's ``status`` is
    ``"failed"`` only under ``on_error="skip"`` — every other policy
    either returns all-ok rows or raises.
    """
    if workers <= 1:
        return _run_serial(
            fn,
            items,
            _effective_retries(retries, on_error),
            on_error,
            backoff_base,
            backoff_cap,
        )
    runner = _PoolRunner(
        fn,
        items,
        workers,
        retries,
        task_timeout,
        on_error,
        backoff_base,
        backoff_cap,
        initializer,
        initargs,
    )
    return runner.run()

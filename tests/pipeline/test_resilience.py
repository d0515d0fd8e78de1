"""Tests for the resilient executor: retries, crashes, timeouts, interrupts."""

import functools
import multiprocessing
import os
import time

import pytest

from repro.pipeline.faults import FaultInjected, use_faults
from repro.pipeline.resilience import (
    RETRY_POLICY_MIN_RETRIES,
    TaskOutcome,
    run_resilient,
)


def _double(x):
    return x * 2


def _flaky(x, scratch=None, fail_times=1):
    """Fail the first ``fail_times`` calls per item, succeed afterwards.

    Attempt state lives on disk so the function behaves identically from
    pool workers and in-process.
    """
    attempt_file = os.path.join(scratch, f"attempts-{x}")
    seen = int(open(attempt_file).read()) if os.path.exists(attempt_file) else 0
    with open(attempt_file, "w") as fh:
        fh.write(str(seen + 1))
    if seen < fail_times:
        raise RuntimeError(f"flaky failure {seen} for {x}")
    return x * 2


def _crash_once(x, scratch=None, wait_for=()):
    """Hard-kill the worker (no Python unwinding) on the first call for
    ``x`` — once every task named in ``wait_for`` has finished, so the
    crash never catches one of them mid-execution."""
    flag = os.path.join(scratch, f"crashed-{x}")
    if x == "crash" and not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        deadline = time.monotonic() + 60
        while not all(
            os.path.exists(os.path.join(scratch, f"done-{y}")) for y in wait_for
        ):
            assert time.monotonic() < deadline, "waited tasks never finished"
            time.sleep(0.01)
        # The finished tasks still return through the pool's wrapper.
        time.sleep(0.2)
        os._exit(73)
    with open(os.path.join(scratch, f"done-{x}"), "w") as fh:
        fh.write("1")
    return f"ok-{x}"


def _sleepy(x):
    if x == "slow":
        time.sleep(60)
    return x


def _interrupt(x):
    raise KeyboardInterrupt


class TestSerial:
    def test_plain_map(self):
        outcomes = run_resilient(_double, [1, 2, 3], workers=1)
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 and o.failures == 0 for o in outcomes)

    def test_retries_heal_transient_failures(self, tmp_path):
        fn = functools.partial(_flaky, scratch=str(tmp_path), fail_times=2)
        outcomes = run_resilient(fn, [1, 2], workers=1, retries=2, backoff_base=0)
        assert [o.value for o in outcomes] == [2, 4]
        assert [o.attempts for o in outcomes] == [3, 3]
        assert [o.failures for o in outcomes] == [2, 2]

    def test_exhausted_budget_raises_by_default(self, tmp_path):
        fn = functools.partial(_flaky, scratch=str(tmp_path), fail_times=5)
        with pytest.raises(RuntimeError, match="flaky failure"):
            run_resilient(fn, [1], workers=1, retries=1, backoff_base=0)

    def test_skip_records_failure_and_continues(self, tmp_path):
        fn = functools.partial(_flaky, scratch=str(tmp_path), fail_times=5)
        outcomes = run_resilient(
            fn, [1, 2], workers=1, retries=1, on_error="skip", backoff_base=0
        )
        assert all(o.status == "failed" for o in outcomes)
        assert all("RuntimeError: flaky failure" in o.error for o in outcomes)
        assert [o.attempts for o in outcomes] == [2, 2]

    def test_retry_policy_guarantees_minimum_budget(self, tmp_path):
        fn = functools.partial(
            _flaky, scratch=str(tmp_path), fail_times=RETRY_POLICY_MIN_RETRIES
        )
        outcomes = run_resilient(fn, [1], workers=1, on_error="retry", backoff_base=0)
        assert outcomes[0].ok
        assert outcomes[0].attempts == RETRY_POLICY_MIN_RETRIES + 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="on_error"):
            run_resilient(_double, [1], workers=1, on_error="ignore")
        with pytest.raises(ValueError, match="retries"):
            run_resilient(_double, [1], workers=1, retries=-1)

    def test_faults_count_against_retry_budget(self):
        with use_faults("campaign.task:error:p=1:count=2"):
            from repro.pipeline.faults import maybe_inject

            def task(x):
                maybe_inject("campaign.task", str(x))
                return x

            outcomes = run_resilient(task, [7], workers=1, retries=2, backoff_base=0)
        assert outcomes[0].value == 7
        assert outcomes[0].attempts == 3  # two injected faults, then success

    def test_fault_without_budget_raises(self):
        with use_faults("campaign.task:error:p=1:count=1"):
            from repro.pipeline.faults import maybe_inject

            def task(x):
                maybe_inject("campaign.task", str(x))
                return x

            with pytest.raises(FaultInjected):
                run_resilient(task, [7], workers=1)

    def test_no_pool_and_no_scratch_directory(self, monkeypatch):
        """The in-process path (every ``repro serve`` job) must not pay
        for a pool or a marker directory."""
        import repro.pipeline.resilience as resilience

        def forbidden(*args, **kwargs):
            raise AssertionError("serial execution built a pool or a temp dir")

        monkeypatch.setattr(resilience, "ProcessPoolExecutor", forbidden)
        monkeypatch.setattr(resilience.tempfile, "TemporaryDirectory", forbidden)
        for workers in (0, 1):
            outcomes = run_resilient(_double, [1, 2], workers=workers)
            assert [o.value for o in outcomes] == [2, 4]


class TestPool:
    def test_plain_map_in_order(self):
        outcomes = run_resilient(_double, [3, 1, 2], workers=2)
        assert [o.value for o in outcomes] == [6, 2, 4]

    def test_retries_heal_transient_failures(self, tmp_path):
        fn = functools.partial(_flaky, scratch=str(tmp_path), fail_times=1)
        outcomes = run_resilient(fn, [1, 2, 3], workers=2, retries=2, backoff_base=0)
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.failures == 1 for o in outcomes)

    def test_worker_crash_recovers_remaining_tasks(self, tmp_path):
        # Satellite: a worker os._exit mid-task breaks the whole pool;
        # the runner must rebuild it and finish every other task.
        fn = functools.partial(_crash_once, scratch=str(tmp_path))
        items = ["a", "crash", "b", "c"]
        outcomes = run_resilient(fn, items, workers=2, retries=3, backoff_base=0)
        assert [o.value for o in outcomes] == ["ok-a", "ok-crash", "ok-b", "ok-c"]
        crashed = outcomes[1]
        assert crashed.failures >= 1  # the killed attempt was charged

    def test_worker_crash_skip_policy_marks_task_failed(self, tmp_path):
        # With a zero retry budget the killed attempt exhausts the task:
        # under "skip" it is recorded as failed and the rest still runs.
        items = ["a", "crash", "b"]
        fn = functools.partial(
            _crash_once, scratch=str(tmp_path), wait_for=("a", "b")
        )
        outcomes = run_resilient(fn, items, workers=2, on_error="skip", backoff_base=0)
        assert outcomes[0].value == "ok-a"
        assert outcomes[2].value == "ok-b"
        assert outcomes[1].status == "failed"
        assert "worker process died" in outcomes[1].error

    def test_timeout_fails_task_and_recycles_pool(self, tmp_path):
        start = time.monotonic()
        outcomes = run_resilient(
            _sleepy,
            ["fast", "slow"],
            workers=2,
            task_timeout=2.0,
            on_error="skip",
            backoff_base=0,
        )
        wall = time.monotonic() - start
        assert outcomes[0].value == "fast"
        assert outcomes[1].status == "failed"
        assert "timed out" in outcomes[1].error
        assert wall < 30  # nowhere near the 60s sleep

    def test_keyboard_interrupt_cleans_up_workers(self):
        # Satellite: Ctrl-C must cancel pending work, tear the pool
        # down without orphaning workers, and re-raise.
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(KeyboardInterrupt):
            run_resilient(_interrupt, [1, 2, 3], workers=2)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leftover = {
                p.pid for p in multiprocessing.active_children()
            } - before
            if not leftover:
                break
            time.sleep(0.1)
        assert not leftover, f"orphaned worker processes: {leftover}"

    def test_raise_policy_propagates_with_context(self, tmp_path):
        fn = functools.partial(_flaky, scratch=str(tmp_path), fail_times=9)
        with pytest.raises(RuntimeError, match="failed after 2 attempt"):
            run_resilient(fn, [1], workers=2, retries=1, backoff_base=0)

    def test_outcome_defaults(self):
        outcome = TaskOutcome()
        assert outcome.ok and outcome.value is None
        assert outcome.attempts == 0 and outcome.failures == 0

"""The long-lived optimization service (``repro serve``).

PR 5 made every experiment a frozen, digestable
:class:`~repro.api.spec.ExperimentSpec` and every result a replayable
``repro-report/v1`` document — exactly the contract a service needs.
This package puts that contract on a socket:

* :class:`~repro.serve.server.ReproServer` — stdlib-asyncio HTTP front
  end over a shared :class:`~repro.api.session.Session`: POST a spec,
  get a job id (a cache hit is answered done at once); identical
  in-flight specs share one computation (dedup by ``spec.digest``);
  finished jobs return the exact report.
* :class:`~repro.serve.jobs.JobRegistry` — the thread-safe job table
  and in-flight dedup map behind the server.
* :class:`~repro.serve.client.ServeClient` — stdlib client helpers
  (submit / wait / fetch-report) for examples, tests and CI.

Many replicas can share one artifact cache by pointing ``--cache-dir``
at a sqlite-backed root (see :mod:`repro.pipeline.storage`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serve.client": ("ServeClient", "ServeError"),
        "repro.serve.jobs": ("JOB_STATES", "Job", "JobRegistry", "QueueFull"),
        "repro.serve.server": ("ReproServer", "ServerHandle"),
    },
)

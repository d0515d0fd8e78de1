"""Compute backends for the sequential-replacement kernels.

A *backend* supplies the two kernels the vectorized engine cannot
express as plain array passes — the LRU stack-depth test and the
skewed-cache replay — behind one small interface (:class:`Backend`).
Three ship, in preference order:

* ``numba``  — JIT-compiled per-access loops, available only when
  :mod:`numba` is installed (the optional fast path, selected
  automatically like the parity kernel's NumPy 1.x table fallback in
  :mod:`repro.gf2.bitvec`);
* ``numpy``  — pure-NumPy kernels (chunked reuse-distance probe for
  LRU, chunked speculative-fixpoint replay for skewed); always
  available;
* ``python`` — the per-access reference loops, the always-available
  oracle the other two are property-tested against.

Selection order for :func:`active_backend`:

1. an explicit :func:`use_backend` override (innermost wins);
2. the ``REPRO_BACKEND`` environment variable;
3. the first available backend of the table above.

Every kernel is bit-identical across backends (property-tested), so the
choice is purely a performance decision — which is why the backend name
is recorded in ``repro-report/v1`` metadata but never enters
``spec.digest``.  A backend's module, and with it NumPy, is imported on
the first call of one of its kernels, so naming the active backend
costs no import.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import os
import warnings
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "BACKEND_ENV_VAR",
    "Backend",
    "active_backend",
    "backend_names",
    "backend_status",
    "clear_degradations",
    "degradation_events",
    "get_backend",
    "use_backend",
]

#: Environment variable naming the backend to use (e.g. ``numpy``).
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The backend a failing kernel re-runs on.
_FALLBACK = "numpy"

# Per thread (and per asyncio task): a ``repro serve`` job pinning its
# backend must not move the backend of the jobs running beside it.
_OVERRIDES: ContextVar[tuple[str, ...]] = ContextVar("backend_overrides", default=())

# (backend, kernel) pairs that degraded this process, and their
# one-line messages in event order.  ``Session.optimize`` drains the
# messages into ``OptimizationResult.warnings`` / report
# ``environment.warnings``.
_DEGRADED: set[tuple[str, str]] = set()
_DEGRADATION_LOG: list[str] = []


@dataclass(frozen=True)
class Backend:
    """One compute backend: a name, its state and the sequential kernels.

    Each kernel is ``repro.backend.<name>_backend.<kernel>``, looked up
    on every call.  The call passes the ``backend.kernel`` fault site
    first.  A runtime failure in a non-NumPy kernel (e.g. a Numba JIT
    error on an exotic dtype) re-runs the call on the NumPy kernel —
    every backend is bit-identical, so results are unaffected — records
    the degradation once per (backend, kernel), and stops calling the
    broken kernel.  NumPy itself has no fallback: its failures raise.
    """

    name: str
    available: bool
    description: str
    priority: int

    def lru_depth_at_least(self, prev, nxt, threshold):
        """Given previous/next same-(set, key) occurrence links in
        *grouped* coordinates (sets contiguous, program order inside
        each set; ``prev[t] < 0`` marks a first touch, ``nxt[t]`` = the
        end of the access's set span marks a last occurrence — see
        :func:`repro.cache.engine.core.occurrence_links`), a boolean
        array that is True exactly where the access is a reaccess whose
        LRU stack depth within its set is >= ``threshold``."""
        return self._call("lru_depth_at_least", prev, nxt, threshold)

    def skewed_misses(self, bank_ids, keys, victims, num_sets):
        """Per-access miss vector of a skewed cache (one frame per set
        per bank) under the given per-access victim choices."""
        return self._call("skewed_misses", bank_ids, keys, victims, num_sets)

    def _call(self, kernel: str, *args):
        # Lazily imported: repro.pipeline.context imports the engine,
        # which imports this package — a module-level import of the
        # pipeline would be circular.
        from repro.pipeline.faults import maybe_inject

        # Injection sits OUTSIDE the try: an injected fault must reach
        # the task-retry layer, not be swallowed by the fallback.
        maybe_inject("backend.kernel", f"{self.name}/{kernel}")
        if (self.name, kernel) not in _DEGRADED:
            try:
                return getattr(_module(self.name), kernel)(*args)
            except Exception as error:
                if self.name == _FALLBACK:
                    raise
                _DEGRADED.add((self.name, kernel))
                message = (
                    f"compute backend {self.name!r} kernel {kernel!r} "
                    f"failed at runtime ({type(error).__name__}: {error}); "
                    f"falling back to {_FALLBACK!r} for this kernel"
                )
                _DEGRADATION_LOG.append(message)
                warnings.warn(message, RuntimeWarning, stacklevel=3)
        return getattr(_module(_FALLBACK), kernel)(*args)


def _module(name: str):
    return importlib.import_module(f"repro.backend.{name}_backend")


_HAS_NUMBA = importlib.util.find_spec("numba") is not None

#: Every backend by name, in preference order.
_BACKENDS = {
    name: Backend(name, available, description, priority)
    for name, available, description, priority in (
        (
            "numba",
            _HAS_NUMBA,
            "JIT-compiled per-access loops"
            if _HAS_NUMBA
            else "numba not importable (pip install numba to enable)",
            20,
        ),
        ("numpy", True, "vectorized chunked-probe and speculative-replay kernels", 10),
        ("python", True, "per-access reference loops (oracle)", 0),
    )
}


def degradation_events() -> list[str]:
    """Degradation messages recorded in this process, oldest first."""
    return list(_DEGRADATION_LOG)


def clear_degradations() -> None:
    """Forget recorded degradations (tests; a degraded JIT kernel is
    retried again after this)."""
    _DEGRADED.clear()
    _DEGRADATION_LOG.clear()


def backend_names() -> list[str]:
    """Every backend name, in preference order."""
    return list(_BACKENDS)


def get_backend(name: str) -> Backend:
    """Look up one backend by name; raises on unknown or unavailable."""
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown compute backend {name!r}; choose from "
            f"{', '.join(_BACKENDS)}"
        )
    if not backend.available:
        raise ValueError(
            f"compute backend {name!r} is not available "
            f"({backend.description}); available: "
            f"{', '.join(b.name for b in _BACKENDS.values() if b.available)}"
        )
    return backend


def _choose(name: str, source: str) -> Backend:
    """:func:`get_backend` for a user's choice: a bad one is a
    :class:`~repro.api.errors.SpecError` naming where it was made."""
    try:
        return get_backend(name)
    except ValueError as error:
        from repro.api.errors import SpecError

        raise SpecError(str(error), field=source) from None


def active_backend() -> Backend:
    """The backend the engine kernels dispatch to right now.

    Resolution: innermost :func:`use_backend` override, then the
    ``REPRO_BACKEND`` environment variable, then the first available
    backend.  An unavailable explicit choice raises immediately — a
    silent fallback would misattribute benchmark numbers.
    """
    overrides = _OVERRIDES.get()
    if overrides:
        return get_backend(overrides[-1])
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return _choose(env, BACKEND_ENV_VAR)
    return next(b for b in _BACKENDS.values() if b.available)


@contextlib.contextmanager
def use_backend(name: str | None):
    """Pin the active backend inside a ``with`` block.

    The pin holds for the calling thread only: concurrent ``repro
    serve`` jobs each run on the backend their own spec names.
    ``None`` pins nothing and yields the resolved backend, so callers
    can pass an optional spec field straight through.  Either way the
    choice is validated on entry, before any work runs.
    """
    if name is None:
        yield active_backend()
        return
    backend = _choose(name, "execution.backend")
    token = _OVERRIDES.set((*_OVERRIDES.get(), name))
    try:
        yield backend
    finally:
        _OVERRIDES.reset(token)


def backend_status() -> list[dict]:
    """One row per backend, in preference order, for CLIs and sessions.

    Keys: ``name``, ``available``, ``active``, ``priority``,
    ``description``.
    """
    active = active_backend().name
    return [
        {
            "name": b.name,
            "available": b.available,
            "active": b.name == active,
            "priority": b.priority,
            "description": b.description,
        }
        for b in _BACKENDS.values()
    ]

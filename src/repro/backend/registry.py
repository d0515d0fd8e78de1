"""Compute-backend registry and runtime selection.

A *backend* supplies the two sequential-replacement kernels the
vectorized engine cannot express as plain array passes — the LRU
stack-depth test and the skewed-cache replay — behind one small
interface (:class:`Backend`).  Three implementations ship:

* ``numpy``  — pure-NumPy kernels (chunked reuse-distance probe for
  LRU, chunked speculative-fixpoint replay for skewed); always
  available and the default;
* ``numba``  — JIT-compiled per-access loops, available only when
  :mod:`numba` is installed (the optional fast path, selected
  automatically like the parity kernel's NumPy 1.x table fallback
  in :mod:`repro.gf2.bitvec`);
* ``python`` — the retained per-access reference loops, kept as the
  always-available oracle the other two are property-tested against.

Selection order for :func:`active_backend`:

1. an explicit :func:`use_backend` override (innermost wins);
2. the ``REPRO_BACKEND`` environment variable;
3. the highest-priority *available* backend (``numba`` when importable,
   else ``numpy``).

Every kernel is bit-identical across backends (property-tested), so the
choice is purely a performance decision — which is why the backend name
is recorded in ``repro-report/v1`` metadata but never enters
``spec.digest``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import warnings
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable

__all__ = [
    "Backend",
    "register_backend",
    "backend_names",
    "available_backends",
    "backend_status",
    "get_backend",
    "active_backend",
    "use_backend",
    "degradation_events",
    "clear_degradations",
    "BACKEND_ENV_VAR",
]

#: Environment variable naming the backend to use (e.g. ``numpy``).
BACKEND_ENV_VAR = "REPRO_BACKEND"


@dataclass(frozen=True)
class Backend:
    """One compute backend: a name plus the sequential kernels.

    ``lru_depth_at_least(prev, nxt, threshold)`` — given previous/next
    same-(set, key) occurrence links in *grouped* coordinates (sets
    contiguous, program order inside each set; ``prev[t] < 0`` marks a
    first touch, ``nxt[t]`` = the end of the access's set span marks a
    last occurrence — see
    :func:`repro.cache.engine.core.occurrence_links`),
    return a boolean array that is True exactly where the access is a
    reaccess whose LRU stack depth within its set is >= ``threshold``.

    ``skewed_misses(bank_ids, keys, victims, num_sets)`` — per-access
    miss vector of a skewed cache (one frame per set per bank) under
    the given per-access victim choices.

    ``available`` distinguishes registered-but-uninstalled backends
    (``numba`` without the package) from usable ones; ``priority``
    orders automatic selection (higher wins).
    """

    name: str
    lru_depth_at_least: Callable
    skewed_misses: Callable
    priority: int = 0
    available: bool = True
    description: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Backend({self.name!r}, available={self.available})"


_REGISTRY: dict[str, Backend] = {}
# Per thread (and per asyncio task): a ``repro serve`` job pinning its
# backend must not move the backend of the jobs running beside it.
_OVERRIDES: ContextVar[tuple[str, ...]] = ContextVar("backend_overrides", default=())

#: The fallback backend a degraded kernel re-runs on.
FALLBACK_BACKEND = "numpy"

# Unwrapped kernels by (backend, kernel) — the fallback path calls the
# raw NumPy kernel directly (no re-injection, no double accounting).
_RAW_KERNELS: dict[tuple[str, str], Callable] = {}

# (backend, kernel) pairs that degraded this process, in event order,
# with their one-line messages.  ``Session.optimize`` drains these into
# ``OptimizationResult.warnings`` / report ``environment.warnings``.
_DEGRADED: set[tuple[str, str]] = set()
_DEGRADATION_LOG: list[str] = []


def degradation_events() -> list[str]:
    """Degradation messages recorded in this process, oldest first."""
    return list(_DEGRADATION_LOG)


def clear_degradations() -> None:
    """Forget recorded degradations (tests; a degraded JIT kernel is
    retried again after this)."""
    _DEGRADED.clear()
    _DEGRADATION_LOG.clear()


def _record_degradation(name: str, kernel_name: str, error: Exception) -> None:
    message = (
        f"compute backend {name!r} kernel {kernel_name!r} failed at runtime "
        f"({type(error).__name__}: {error}); falling back to "
        f"{FALLBACK_BACKEND!r} for this kernel"
    )
    _DEGRADATION_LOG.append(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _with_fallback(name: str, kernel_name: str, kernel: Callable) -> Callable:
    """Wrap a kernel with fault injection + graceful degradation.

    A runtime failure in a non-NumPy kernel (e.g. a Numba JIT error on
    an exotic dtype) re-runs the call on the raw NumPy kernel — every
    backend is bit-identical, so results are unaffected — records the
    degradation once per (backend, kernel), and stops retrying the
    broken kernel.  NumPy itself has no fallback: its failures raise.
    """

    @functools.wraps(kernel)
    def wrapped(*args, **kwargs):
        # Lazily imported: repro.pipeline.context imports the engine,
        # which imports this package — a module-level import of the
        # pipeline would be circular.
        from repro.pipeline.faults import maybe_inject

        fallback = _RAW_KERNELS.get((FALLBACK_BACKEND, kernel_name))
        degradable = name != FALLBACK_BACKEND and fallback is not None
        # Injection sits OUTSIDE the try: an injected fault must reach
        # the task-retry layer, not be swallowed by the fallback.
        maybe_inject("backend.kernel", f"{name}/{kernel_name}")
        if degradable and (name, kernel_name) in _DEGRADED:
            return fallback(*args, **kwargs)
        try:
            return kernel(*args, **kwargs)
        except Exception as error:
            if not degradable:
                raise
            if (name, kernel_name) not in _DEGRADED:
                _DEGRADED.add((name, kernel_name))
                _record_degradation(name, kernel_name, error)
            return fallback(*args, **kwargs)

    return wrapped


def register_backend(backend: Backend) -> Backend:
    """Register (or replace) a backend under its name.

    Kernels are wrapped at registration with the fault-injection site
    ``backend.kernel`` and (for non-NumPy backends) graceful runtime
    degradation to the NumPy kernels.
    """
    _RAW_KERNELS[(backend.name, "lru_depth_at_least")] = backend.lru_depth_at_least
    _RAW_KERNELS[(backend.name, "skewed_misses")] = backend.skewed_misses
    wrapped = replace(
        backend,
        lru_depth_at_least=_with_fallback(
            backend.name, "lru_depth_at_least", backend.lru_depth_at_least
        ),
        skewed_misses=_with_fallback(
            backend.name, "skewed_misses", backend.skewed_misses
        ),
    )
    _REGISTRY[backend.name] = wrapped
    return wrapped


def backend_names() -> list[str]:
    """Every registered backend name, best-priority first."""
    return [b.name for b in sorted(
        _REGISTRY.values(), key=lambda b: -b.priority
    )]


def available_backends() -> list[Backend]:
    """The usable backends, best-priority first."""
    return [b for b in sorted(
        _REGISTRY.values(), key=lambda b: -b.priority
    ) if b.available]


def get_backend(name: str) -> Backend:
    """Look up one backend by name; raises on unknown or unavailable."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ValueError(
            f"unknown compute backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        )
    if not backend.available:
        raise ValueError(
            f"compute backend {name!r} is registered but not available "
            f"({backend.description or 'dependency not importable'}); "
            f"available: {', '.join(b.name for b in available_backends())}"
        )
    return backend


def active_backend() -> Backend:
    """The backend the engine kernels dispatch to right now.

    Resolution: innermost :func:`use_backend` override, then the
    ``REPRO_BACKEND`` environment variable, then the best available
    backend.  An unavailable explicit choice raises immediately — a
    silent fallback would misattribute benchmark numbers.
    """
    overrides = _OVERRIDES.get()
    if overrides:
        return get_backend(overrides[-1])
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return get_backend(env)
    candidates = available_backends()
    if not candidates:  # pragma: no cover - numpy backend always registers
        raise RuntimeError("no compute backends are available")
    return candidates[0]


@contextlib.contextmanager
def use_backend(name: str | None):
    """Pin the active backend inside a ``with`` block.

    The pin holds for the calling thread only: concurrent ``repro
    serve`` jobs each run on the backend their own spec names.
    ``None`` is a no-op context (callers can pass an optional spec
    field straight through).  The name is validated on entry.
    """
    if name is None:
        yield active_backend()
        return
    get_backend(name)  # validate eagerly: fail before any work runs
    token = _OVERRIDES.set((*_OVERRIDES.get(), name))
    try:
        yield _REGISTRY[name]
    finally:
        _OVERRIDES.reset(token)


def backend_status() -> list[dict]:
    """One row per registered backend for CLIs and sessions.

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
        for b in sorted(_REGISTRY.values(), key=lambda b: -b.priority)
    ]

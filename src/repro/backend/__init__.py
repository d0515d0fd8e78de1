"""Pluggable compute backends for the sequential-replacement kernels.

Importing this package registers every bundled backend by name
(``numba``, available when the package is installed; ``numpy``;
``python``); see :mod:`repro.backend.registry` for the selection rules.
A backend's module, and with it NumPy, is imported on the first call
of one of its kernels, so naming the active backend costs no import.
"""

import importlib.util

from repro.backend.registry import (
    BACKEND_ENV_VAR,
    Backend,
    active_backend,
    available_backends,
    backend_names,
    backend_status,
    clear_degradations,
    degradation_events,
    get_backend,
    register_backend,
    use_backend,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "Backend",
    "active_backend",
    "available_backends",
    "backend_names",
    "backend_status",
    "clear_degradations",
    "degradation_events",
    "get_backend",
    "register_backend",
    "use_backend",
]


def _kernel(name: str, kernel: str):
    """Kernel ``kernel`` of ``repro.backend.<name>_backend``, imported
    on its first call."""

    def call(*args, **kwargs):
        module = importlib.import_module(f"repro.backend.{name}_backend")
        return getattr(module, kernel)(*args, **kwargs)

    call.__name__ = call.__qualname__ = kernel
    return call


_HAS_NUMBA = importlib.util.find_spec("numba") is not None

for _name, _priority, _available, _description in (
    (
        "numba",
        20,
        _HAS_NUMBA,
        "JIT-compiled per-access loops"
        if _HAS_NUMBA
        else "numba not importable (pip install numba to enable)",
    ),
    ("numpy", 10, True, "vectorized chunked-probe and speculative-replay kernels"),
    ("python", 0, True, "per-access reference loops (oracle)"),
):
    register_backend(
        Backend(
            name=_name,
            lru_depth_at_least=_kernel(_name, "lru_depth_at_least"),
            skewed_misses=_kernel(_name, "skewed_misses"),
            priority=_priority,
            available=_available,
            description=_description,
        )
    )

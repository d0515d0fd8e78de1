"""The fingerprint of the code that generates registry traces.

Kept apart from :mod:`repro.workloads.registry`, which imports every
kernel, so that keying a trace memo record imports neither the kernels
nor NumPy.
"""

from __future__ import annotations

import hashlib
import importlib.util
import re
from functools import cache
from pathlib import Path

__all__ = ["generator_fingerprint", "numpy_version"]

_VERSION_LINE = re.compile(r"""^version(?:\s*:\s*str)?\s*=\s*["']([^"']+)["']""", re.M)


def numpy_version() -> str:
    """The installed NumPy's ``__version__``.

    Read from the package's ``version.py`` without importing NumPy; an
    installation laid out otherwise falls back to the import.
    """
    spec = importlib.util.find_spec("numpy")
    if spec is not None and spec.submodule_search_locations:
        path = Path(spec.submodule_search_locations[0]) / "version.py"
        try:
            match = _VERSION_LINE.search(path.read_text())
        except OSError:
            match = None
        if match:
            return match.group(1)
    import numpy

    return numpy.__version__


@cache
def generator_fingerprint() -> str:
    """sha256 of everything a registry trace's content depends on.

    That is the source of every module under :mod:`repro.workloads`,
    :mod:`repro.trace.trace` (the :class:`Trace` constructor coerces
    the addresses) and the NumPy version.  Records keyed by it (the
    pipeline's trace-digest memo) go stale by construction when any of
    them changes.  Computed once per process.
    """
    package = Path(__file__).resolve().parent.parent
    sources = sorted(
        path.relative_to(package).as_posix()
        for path in (package / "workloads").rglob("*.py")
    )
    digest = hashlib.sha256(f"numpy={numpy_version()}".encode())
    for name in [*sources, "trace/trace.py"]:
        digest.update(f"\0{name}\0".encode())
        digest.update((package / name).read_bytes())
    return digest.hexdigest()

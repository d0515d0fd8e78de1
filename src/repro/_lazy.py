"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package lists which submodule defines each public name; the name's
submodule is imported the first time the name is read, and the value
is then bound in the package namespace, so later reads are plain
attribute lookups.  ``import repro`` therefore costs only the modules a
caller actually touches::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.trace.trace": ("Trace",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a module name to the names it exports; ``__all__``
    lists them in table order.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)

"""Minimal TOML read/write for experiment specs.

Reading uses the standard library (:mod:`tomllib`, Python >= 3.11) when
available.  Writing is a purpose-built emitter covering exactly the
shapes spec dictionaries contain — nested tables of strings, ints,
floats, booleans and flat lists — so the package needs no third-party
TOML writer.  ``None`` values are omitted on write (TOML has no null);
:func:`repro.api.spec` fills them back in as defaults on read, which is
what makes the TOML round trip lossless.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

__all__ = ["dumps", "loads"]


def _format_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr keeps round-trip precision; TOML floats need a dot or
        # exponent, which repr of a Python float always has.
        text = repr(value)
        return text if ("." in text or "e" in text or "n" in text) else text + ".0"
    if isinstance(value, str):
        # JSON string escaping is a valid TOML basic string for every
        # character we can encounter.
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_scalar(v) for v in value) + "]"
    raise TypeError(f"cannot represent {type(value).__name__} value {value!r} in TOML")


def dumps(payload: Mapping[str, Any], *, header: str | None = None) -> str:
    """Serialize a two-level spec dictionary as TOML text.

    Top-level scalars become root keys; top-level mappings become
    ``[table]`` sections.  ``None`` values are skipped.
    """
    lines: list[str] = []
    if header:
        lines.extend(f"# {line}".rstrip() for line in header.splitlines())
        lines.append("")
    tables: list[tuple[str, Mapping[str, Any]]] = []
    for key, value in payload.items():
        if value is None:
            continue
        if isinstance(value, Mapping):
            tables.append((key, value))
        else:
            lines.append(f"{key} = {_format_scalar(value)}")
    for name, table in tables:
        entries = {k: v for k, v in table.items() if v is not None}
        if not entries:
            # An empty table reads back as all-defaults anyway.
            continue
        if lines and lines[-1] != "":
            lines.append("")
        lines.append(f"[{name}]")
        for key, value in entries.items():
            if isinstance(value, Mapping):
                raise TypeError(
                    f"spec TOML nests at most one table level, got table {key!r} "
                    f"inside [{name}]"
                )
            lines.append(f"{key} = {_format_scalar(value)}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> dict[str, Any]:
    """Parse TOML text into a plain dictionary.

    The reader is imported here, so JSON-only callers never load it.
    """
    try:  # Python >= 3.11
        import tomllib as reader
    except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
        try:
            import tomli as reader  # type: ignore[no-redef]
        except ModuleNotFoundError:
            raise RuntimeError(
                "reading TOML specs needs Python >= 3.11 (tomllib) or the "
                "'tomli' package; use the JSON spec format instead"
            ) from None
    return reader.loads(text)

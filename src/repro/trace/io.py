"""Trace persistence: the one loader and the npz and hex-text writers.

:func:`load_trace` reads a trace file of any format: ``.bin``
memory-mapped, every other format through its one reader in
:mod:`repro.trace.formats`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.names import trace_format
from repro.trace.formats import READERS, TraceFileError
from repro.trace.trace import Trace

__all__ = [
    "save_trace",
    "load_trace",
    "save_trace_text",
]

#: Addresses formatted per vectorized batch; bounds the transient
#: (lines x 17)-byte grids so text output works on memory-mapped traces.
_TEXT_CHUNK = 1 << 20

_HEX_CHARS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def save_trace(trace: Trace, path: str | Path) -> None:
    """Save to ``.npz`` (addresses plus a JSON header)."""
    header = {
        "uops": trace.uops,
        "name": trace.name,
        "kind": trace.kind,
        "metadata": trace.metadata,
    }
    np.savez_compressed(
        Path(path),
        addresses=trace.addresses,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
    )


def load_trace(
    path: str | Path, format: str | None = None, kind: str | None = None
) -> Trace:
    """Load a trace file; ``format`` defaults to the suffix's.

    ``.bin`` opens memory-mapped, with ``kind`` overriding its sidecar.
    The other formats concatenate their reader's batches: ``kind``
    (default ``"data"``) selects the references of dinero and lackey
    files, while npz and text files name their own kind.  Malformed
    content raises :class:`~repro.trace.formats.TraceFileError`.
    """
    format = trace_format(path, format)
    if format == "bin":
        try:
            return Trace.open_mmap(path, kind=kind)
        except (ValueError, TypeError, AttributeError) as error:
            raise TraceFileError(path, str(error).removeprefix(f"{path}: ")) from None
    header: dict = {}
    batches = list(READERS[format](path, kind or "data", header=header))
    addresses = np.concatenate([np.empty(0, dtype=np.uint64), *batches])
    addresses.setflags(write=False)  # already private: spare Trace's copy
    return Trace(
        addresses,
        uops=header.get("uops", 0),
        name=header.get("name", Path(path).stem),
        kind=header.get("kind", "data"),
        metadata=header.get("metadata", {}),
    )


def _format_hex_lines(addresses: np.ndarray) -> bytes:
    """``b"".join(f"{a:x}\\n".encode() for a in addresses)``, vectorized.

    Every address expands to its 16 nibbles, nibbles map through an
    ASCII LUT, and a per-row mask drops leading zeros (keeping one digit
    for zero itself) plus selects the trailing newline — one boolean
    gather instead of a Python-level format call per address.
    """
    shifts = np.arange(60, -1, -4, dtype=np.uint64)
    nibbles = ((addresses[:, None] >> shifts) & np.uint64(0xF)).astype(np.uint8)
    chars = np.empty((len(addresses), 17), dtype=np.uint8)
    chars[:, :16] = _HEX_CHARS[nibbles]
    chars[:, 16] = ord("\n")
    first = np.argmax(nibbles != 0, axis=1)
    first[addresses == np.uint64(0)] = 15
    keep = np.arange(17, dtype=np.int64)[None, :] >= first[:, None]
    return chars[keep].tobytes()


def save_trace_text(trace: Trace, path: str | Path) -> None:
    """One hex byte-address per line, with a ``#``-comment header.

    Formats addresses in vectorized batches of ``_TEXT_CHUNK``;
    byte-identical output to a per-line ``f"{address:x}"`` writer
    (property-tested) at array speed, in bounded memory.
    """
    with open(path, "wb") as fh:
        fh.write(
            f"# name: {trace.name}\n# kind: {trace.kind}\n# uops: {trace.uops}\n".encode()
        )
        for start in range(0, len(trace), _TEXT_CHUNK):
            fh.write(_format_hex_lines(trace.addresses[start : start + _TEXT_CHUNK]))

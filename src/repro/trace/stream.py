"""Out-of-core trace backing: the raw ``.bin`` format and converters.

A ``.bin`` trace is the degenerate-simple on-disk layout the rest of
the streaming pipeline builds on: the byte addresses as consecutive
little-endian ``uint64`` values, nothing else.  That makes the file
directly memory-mappable (:meth:`repro.trace.Trace.open_mmap`), makes
any ``[start, stop)`` shard one ``seek``-free slice, and makes the file
bytes identical to the in-memory address bytes — so the streaming
digest, the sharded profiler and the in-memory kernels all agree bit
for bit.  Execution metadata (``uops``, ``name``, ``kind``, free-form
provenance) lives in a ``<path>.meta.json`` sidecar.

:func:`convert_to_bin` streams the other formats through their readers
(:mod:`repro.trace.formats`) one batch at a time, so a 100 GB Lackey log
converts without ever loading it; a failed write leaves the destination
as it was.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.names import TRACE_FORMATS, infer_trace_format, trace_format
from repro.trace.formats import _BATCH_LINES, READERS
from repro.trace.trace import Trace

__all__ = [
    "BinTraceWriter",
    "save_trace_bin",
    "convert_to_bin",
    "infer_trace_format",
    "TRACE_FORMATS",
]

#: Addresses written per :func:`save_trace_bin` chunk.
_BIN_CHUNK = 1 << 21


def _meta_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


class BinTraceWriter:
    """Incrementally write a ``.bin`` trace plus its metadata sidecar.

    Append any number of address batches (``writer.append(chunk)``) to a
    ``.partial`` sibling, then :meth:`close` moves both files into
    place; as a context manager it discards the partial file when the
    block raises.  Peak memory is one batch.  ``uops`` defaults to the
    reference count, matching :class:`Trace`.
    """

    def __init__(
        self,
        path: str | Path,
        name: str | None = None,
        kind: str = "data",
        metadata: dict[str, Any] | None = None,
    ):
        self.path = Path(path)
        self.name = name if name is not None else self.path.stem
        self.kind = kind
        self.metadata = dict(metadata) if metadata else {}
        self.references = 0
        self._partial = self.path.with_name(self.path.name + ".partial")
        self._fh = open(self._partial, "wb")

    def append(self, addresses: np.ndarray) -> None:
        """Write a batch of byte addresses (any integer array)."""
        chunk = np.ascontiguousarray(addresses, dtype=np.dtype("<u8"))
        self._fh.write(chunk.tobytes())
        self.references += len(chunk)

    def close(self, uops: int = 0) -> Trace:
        """Finish the file, write the sidecar, reopen memory-mapped.

        Closing again rewrites only the sidecar.
        """
        finishing = not self._fh.closed
        self._fh.close()
        sidecar = _meta_path(self._partial)
        sidecar.write_text(
            json.dumps(
                {
                    "uops": int(uops) if uops else self.references,
                    "name": self.name,
                    "kind": self.kind,
                    "metadata": self.metadata,
                },
                sort_keys=True,
            )
            + "\n"
        )
        os.replace(sidecar, _meta_path(self.path))
        if finishing:
            os.replace(self._partial, self.path)
        return Trace.open_mmap(self.path)

    def __enter__(self) -> "BinTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._fh.close()
            self._partial.unlink(missing_ok=True)
        elif not self._fh.closed:
            self.close()


def save_trace_bin(trace: Trace, path: str | Path) -> None:
    """Save a trace as raw ``.bin`` plus sidecar, in bounded chunks."""
    with BinTraceWriter(
        path, name=trace.name, kind=trace.kind, metadata=trace.metadata
    ) as writer:
        for start in range(0, len(trace), _BIN_CHUNK):
            writer.append(trace.addresses[start : start + _BIN_CHUNK])
        writer.close(uops=trace.uops)


def convert_to_bin(
    src: str | Path,
    dst: str | Path,
    format: str | None = None,
    kinds: str = "data",
    name: str | None = None,
    batch_lines: int = _BATCH_LINES,
) -> Trace:
    """Convert any other trace file to ``.bin``; return it mapped.

    ``src`` streams through its format's reader (``format`` defaults to
    the suffix's), so the result is field for field what
    :func:`repro.trace.load_trace` gives; ``kinds`` selects dinero and
    lackey references.  On any error ``dst`` is left as it was.
    """
    format = trace_format(src, format)
    if format == "bin":
        raise ValueError(f"{src} is already a .bin trace; open it with Trace.open_mmap")
    header: dict[str, Any] = {}
    with BinTraceWriter(dst) as writer:
        for chunk in READERS[format](src, kinds, batch_lines, header):
            writer.append(chunk)
        writer.name = name or header.get("name", Path(src).stem)
        writer.kind = header.get("kind", "data")
        writer.metadata = header.get("metadata", {})
        return writer.close(uops=header.get("uops", 0))

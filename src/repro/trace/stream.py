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

:func:`convert_to_bin` turns the existing interchange formats (dinero,
lackey, hex text, npz) into ``.bin`` through the streaming readers in
:mod:`repro.trace.formats`, holding one batch of lines in memory at a
time — a 100 GB Lackey log converts without ever loading it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.names import TRACE_FORMATS, infer_trace_format
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

    Append any number of address batches (``writer.append(chunk)``),
    then :meth:`close` — or use it as a context manager.  Peak memory
    is one batch; the trace on disk can be arbitrarily larger.  ``uops``
    defaults to the reference count, matching :class:`Trace`.
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
        self._fh = open(self.path, "wb")

    def append(self, addresses: np.ndarray) -> None:
        """Write a batch of byte addresses (any integer array)."""
        chunk = np.ascontiguousarray(addresses, dtype=np.dtype("<u8"))
        self._fh.write(chunk.tobytes())
        self.references += len(chunk)

    def close(self, uops: int = 0) -> Trace:
        """Finish the file, write the sidecar, reopen memory-mapped."""
        self._fh.close()
        _meta_path(self.path).write_text(
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
        return Trace.open_mmap(self.path)

    def __enter__(self) -> "BinTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._fh.close()


def save_trace_bin(trace: Trace, path: str | Path) -> None:
    """Save a trace as raw ``.bin`` plus sidecar, in bounded chunks."""
    writer = BinTraceWriter(
        path, name=trace.name, kind=trace.kind, metadata=trace.metadata
    )
    for start in range(0, len(trace), _BIN_CHUNK):
        writer.append(trace.addresses[start : start + _BIN_CHUNK])
    writer.close(uops=trace.uops)


def convert_to_bin(
    src: str | Path,
    dst: str | Path,
    format: str | None = None,
    kinds: str = "data",
    name: str | None = None,
    batch_lines: int | None = None,
) -> Trace:
    """Convert any supported trace file to ``.bin``; return it mapped.

    ``format`` defaults to the suffix of ``src``
    (:func:`infer_trace_format`).  The dinero/lackey/text formats
    stream through their batch iterators so conversion runs in bounded
    memory; ``npz`` decompresses in memory (its compression is not
    seekable).  The result is byte-for-byte the addresses the matching
    in-memory loader would produce (property-tested), with ``uops`` and
    ``kind`` carried into the sidecar.
    """
    from repro.trace.formats import iter_dinero, iter_lackey, iter_trace_text
    from repro.trace.io import load_trace

    src = Path(src)
    if format is None:
        format = infer_trace_format(src)
        if format is None:
            raise ValueError(
                f"cannot infer trace format from suffix of {src}; "
                f"pass format= one of {TRACE_FORMATS}"
            )
    if format not in TRACE_FORMATS:
        raise ValueError(f"format must be one of {TRACE_FORMATS}, got {format!r}")
    if format == "bin":
        raise ValueError(f"{src} is already a .bin trace; open it with Trace.open_mmap")
    batches = {} if batch_lines is None else {"batch_lines": batch_lines}
    if format == "npz":
        trace = load_trace(src)
        save_trace_bin(
            Trace(
                trace.addresses,
                uops=trace.uops,
                name=name or trace.name,
                kind=trace.kind,
                metadata=trace.metadata,
            ),
            dst,
        )
        return Trace.open_mmap(dst)
    if format == "text":
        header: dict[str, Any] = {}
        writer = BinTraceWriter(dst, name=name, kind="data")
        try:
            for chunk in iter_trace_text(src, header=header, **batches):
                writer.append(chunk)
        except BaseException:
            writer._fh.close()
            raise
        writer.name = name or header.get("name", writer.name)
        writer.kind = header.get("kind", "data")
        return writer.close(uops=int(header.get("uops", 0)))
    reader = iter_dinero if format == "dinero" else iter_lackey
    writer = BinTraceWriter(dst, name=name or src.stem, kind=kinds)
    uops = 0
    try:
        for chunk, total in reader(src, kinds=kinds, **batches):
            writer.append(chunk)
            uops += total
    except BaseException:
        writer._fh.close()
        raise
    return writer.close(uops=uops)

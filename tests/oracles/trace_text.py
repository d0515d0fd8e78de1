"""The per-line hex-text trace writer: the oracle of :func:`save_trace_text`."""

from __future__ import annotations

from pathlib import Path

from repro.trace.trace import Trace


def save_trace_text_reference(trace: Trace, path: str | Path) -> None:
    """Per-line loop writer, kept as the oracle for
    :func:`save_trace_text`."""
    with open(path, "w") as fh:
        fh.write(f"# name: {trace.name}\n")
        fh.write(f"# kind: {trace.kind}\n")
        fh.write(f"# uops: {trace.uops}\n")
        for addr in trace.addresses:
            fh.write(f"{int(addr):x}\n")

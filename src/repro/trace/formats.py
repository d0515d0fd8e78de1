"""One reader per trace-file format: dinero, Valgrind lackey, hex text
and npz (``.bin`` needs none: it is memory-mapped).

Each reader in :data:`READERS` takes ``(path, kinds, batch_lines,
header)``, yields ``uint64`` address batches holding one batch of lines
in memory (an npz is one batch: its compression is not seekable), and
fills ``header`` with the file's ``uops``/``name``/``kind``/
``metadata``.  ``kinds`` selects dinero and lackey references; npz and
text files name their own kind.  :func:`repro.trace.load_trace` and
:func:`repro.trace.convert_to_bin` both read through the table.
Malformed content raises :class:`TraceFileError`.
"""

from __future__ import annotations

import json
from itertools import islice
from operator import length_hint
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "TraceFileError",
    "READERS",
    "iter_dinero",
    "iter_lackey",
    "iter_trace_text",
]

_KINDS = ("data", "instruction", "unified")

_DINERO_KINDS = {0: "data", 1: "data", 2: "instruction"}

#: Lackey marker -> (kind, references per line).
_LACKEY_MARKERS = {
    "I ": ("instruction", 1),
    " L": ("data", 1),
    " S": ("data", 1),
    " M": ("data", 2),
}

#: Lines read per streaming batch — the memory bound of the readers.
_BATCH_LINES = 1 << 16


class TraceFileError(ValueError):
    """Malformed trace-file content: the file's ``path`` and, for the
    line formats, the 1-based ``line`` (else ``None``)."""

    def __init__(self, path: str | Path, message: str, line: int | None = None):
        self.path = str(path)
        self.line = line
        where = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{where}: {message}")


def _read_lines(
    path: str | Path,
    batch_lines: int,
    header: dict,
    parse: Callable[[Iterable[str], dict], list[int]],
) -> Iterator[np.ndarray]:
    """The batched line loop of every line format.  Undecodable bytes
    become U+FFFD and so fail the line they are on."""
    if batch_lines < 1:
        raise ValueError(f"batch_lines must be >= 1, got {batch_lines}")
    first = 1
    with open(path, encoding="utf-8", errors="replace") as fh:
        while lines := list(islice(fh, batch_lines)):
            remaining = iter(lines)
            try:
                addresses = parse(remaining, header)
            except ValueError as error:  # on the last line parse took
                line = first + len(lines) - length_hint(remaining) - 1
                raise TraceFileError(path, str(error), line=line) from None
            yield np.array(addresses, dtype=np.uint64)
            first += len(lines)


def _references(kinds: str, header: dict | None) -> dict:
    """The header a dinero or lackey read starts from: ``kind`` selects
    references and ``uops`` counts every one (the uop proxy)."""
    if kinds not in _KINDS:
        raise ValueError(f"kinds must be one of {_KINDS}, got {kinds!r}")
    header = {} if header is None else header
    header.update(kind=kinds, uops=0)
    return header


def _parse_dinero(lines: Iterable[str], header: dict) -> list[int]:
    kinds = header["kind"]
    keep = {label for label, kind in _DINERO_KINDS.items() if kinds in ("unified", kind)}
    addresses: list[int] = []
    total = 0
    for raw in lines:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            label = int(parts[0])
            addr = int(parts[1], 16)
            if label not in _DINERO_KINDS or addr >> 64:
                raise ValueError
        except (IndexError, ValueError):
            raise ValueError(f"malformed dinero line {raw.strip()!r}") from None
        total += 1
        if label in keep:
            addresses.append(addr)
    header["uops"] += total
    return addresses


def _parse_lackey(lines: Iterable[str], header: dict) -> list[int]:
    take = {
        marker: (repeats, header["kind"] in ("unified", kind))
        for marker, (kind, repeats) in _LACKEY_MARKERS.items()
    }
    addresses: list[int] = []
    total = 0
    for raw in lines:
        found = take.get(raw[:2])
        if found is None:
            continue
        try:
            addr = int(raw[2:].partition(",")[0], 16)
        except ValueError:
            continue  # program output that only looks like a marker
        if addr >> 64:
            continue
        repeats, selected = found
        total += repeats
        if selected:
            addresses.extend((addr,) * repeats)
    header["uops"] += total
    return addresses


def _parse_text(lines: Iterable[str], header: dict) -> list[int]:
    addresses: list[int] = []
    for raw in lines:
        line = raw.strip()
        if line.startswith("#"):
            _read_comment(line, header)
        elif line:
            addr = int(line, 16)
            if addr >> 64:
                raise ValueError(f"address {line} does not fit in 64 bits")
            addresses.append(addr)
    return addresses


def iter_dinero(
    path: str | Path,
    kinds: str = "data",
    batch_lines: int = _BATCH_LINES,
    header: dict | None = None,
) -> Iterator[np.ndarray]:
    """Stream a Dinero trace: ``<label> <hex-addr>`` lines, label 0/1
    ``"data"``, 2 ``"instruction"``; ``kinds`` keeps one or
    ``"unified"`` (all), and ``header["uops"]`` counts them all."""
    return _read_lines(path, batch_lines, _references(kinds, header), _parse_dinero)


def iter_lackey(
    path: str | Path,
    kinds: str = "data",
    batch_lines: int = _BATCH_LINES,
    header: dict | None = None,
) -> Iterator[np.ndarray]:
    """Stream a Valgrind Lackey ``--trace-mem=yes`` log: ``I  addr,size``
    fetches and indented `` L``/`` S``/`` M`` data lines (a modify is a
    load and a store).  Every other line, even one that only looks like
    a marker, is skipped.  Same contract as :func:`iter_dinero`."""
    return _read_lines(path, batch_lines, _references(kinds, header), _parse_lackey)


def iter_trace_text(
    path: str | Path,
    kinds: str = "data",
    batch_lines: int = _BATCH_LINES,
    header: dict | None = None,
) -> Iterator[np.ndarray]:
    """Stream the hex text format, one address per line; its ``# name:``
    / ``# kind:`` / ``# uops:`` comments land in ``header`` (``kinds``
    is unused: the file names its own kind)."""
    return _read_lines(path, batch_lines, {} if header is None else header, _parse_text)


def _set_field(header: dict, key: str, value) -> None:
    """Record one header field; raise ``ValueError`` for a value
    :class:`~repro.trace.Trace` would reject."""
    if key == "uops":
        value = int(value)
        if value < 0:
            raise ValueError(f"uops must be non-negative, got {value}")
    elif key == "kind" and value not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {value!r}")
    header[key] = value


def _read_comment(line: str, header: dict) -> None:
    """Record a hex-text ``# name:``/``# kind:``/``# uops:`` comment
    in ``header``; other comments are ignored."""
    key, __, value = line[1:].partition(":")
    key = key.strip()
    if key in ("name", "kind", "uops"):
        _set_field(header, key, value.strip())


def _iter_npz(path, kinds="data", batch_lines=_BATCH_LINES, header=None):
    header = {} if header is None else header
    try:
        with np.load(Path(path)) as data:
            fields = json.loads(bytes(data["header"]).decode())
            addresses = np.ascontiguousarray(data["addresses"], dtype=np.uint64)
        for key in ("uops", "name", "kind", "metadata"):
            _set_field(header, key, fields[key])
        if addresses.ndim != 1:
            raise ValueError(f"addresses must be 1-D, got shape {addresses.shape}")
    except OSError:
        raise
    except Exception as error:  # arbitrary bytes fail anywhere in zip/npy/json
        raise TraceFileError(path, f"not a trace .npz ({error!r})") from None
    yield addresses


#: Format name -> its one reader, ``(path, kinds, batch_lines, header)``.
READERS = {
    "npz": _iter_npz,
    "text": iter_trace_text,
    "dinero": iter_dinero,
    "lackey": iter_lackey,
}

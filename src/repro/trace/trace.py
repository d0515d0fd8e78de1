"""Memory-access traces.

A :class:`Trace` is the unit of work for the whole pipeline: workloads
produce traces, the profiler consumes them, and the cache simulators
replay them.  Addresses are byte addresses stored as ``uint64``; the
paper's experiments use 4-byte cache blocks, so block addresses are the
byte addresses shifted right by 2.

NumPy loads with the first address array: a :class:`DeferredTrace`
served from a record, which only answers its digest, length and
metadata, never imports it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Trace", "DeferredTrace", "TraceDigestError"]

#: Bumped whenever the digest recipe changes, so stale on-disk artifacts
#: keyed by an older recipe can never be mistaken for current ones.
_DIGEST_VERSION = b"trace-digest-v1"

#: Bytes hashed per :attr:`Trace.digest` update.  Chunking keeps the
#: peak transient at one slice instead of a whole-trace ``tobytes()``
#: copy, which matters for memory-mapped traces larger than RAM.
_DIGEST_CHUNK_BYTES = 1 << 24

_VALID_KINDS = ("data", "instruction", "unified")


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of memory references plus execution metadata.

    Parameters
    ----------
    addresses:
        Byte addresses in program order (coerced to ``uint64``).
    uops:
        Total micro-operations executed by the program that produced the
        trace; used for the paper's misses/K-uop metric.  Defaults to the
        number of references when the producer has no CPU model.
    name:
        Identifier, e.g. ``"mibench/fft"``.
    kind:
        ``"data"``, ``"instruction"`` or ``"unified"``.
    metadata:
        Free-form provenance (workload parameters, seeds, ...).
    """

    addresses: np.ndarray
    uops: int = 0
    name: str = "trace"
    kind: str = "data"
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        import numpy as np

        addresses = np.ascontiguousarray(self.addresses, dtype=np.uint64)
        # Frozen for real: the content digest is memoized, so a mutable
        # array would let a write silently poison every artifact keyed
        # by it.  Copy first when the conversion was a no-op on a
        # writable caller-owned array — freezing that in place would be
        # a side effect on the caller.
        if addresses is self.addresses and addresses.flags.writeable:
            addresses = addresses.copy()
        addresses.setflags(write=False)
        object.__setattr__(self, "addresses", addresses)
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"kind must be one of {_VALID_KINDS}, got {self.kind!r}")
        if self.uops == 0:
            object.__setattr__(self, "uops", int(len(addresses)))
        if self.uops < 0:
            raise ValueError(f"uops must be non-negative, got {self.uops}")

    def __len__(self) -> int:
        return len(self.addresses)

    @classmethod
    def open_mmap(
        cls,
        path: str | Path,
        uops: int = 0,
        name: str | None = None,
        kind: str | None = None,
        metadata: dict[str, Any] | None = None,
    ) -> "Trace":
        """Open a raw ``.bin`` trace (little-endian uint64 addresses)
        without loading it into memory.

        The addresses stay a read-only memory mapping of the file, so a
        trace far larger than RAM opens in O(1) and pages in lazily as
        it is read.  Execution metadata comes from the
        ``<path>.meta.json`` sidecar written by
        :func:`repro.trace.stream.save_trace_bin` when present; explicit
        arguments override it.  :attr:`mmap_path` records the backing
        file so downstream consumers (sharded profiling, the streaming
        digest) can reopen it per worker instead of pickling the array.
        """
        import numpy as np

        path = Path(path)
        size = path.stat().st_size
        if size % 8:
            raise ValueError(
                f"{path}: size {size} is not a multiple of 8 bytes "
                "(expected raw little-endian uint64 addresses)"
            )
        header: dict[str, Any] = {}
        meta_path = Path(str(path) + ".meta.json")
        if meta_path.exists():
            header = json.loads(meta_path.read_text())
        if size:
            addresses = np.memmap(path, dtype=np.dtype("<u8"), mode="r")
        else:
            addresses = np.empty(0, dtype=np.uint64)
        trace = cls(
            addresses,
            uops=uops if uops else int(header.get("uops", 0)),
            name=name if name is not None else header.get("name") or path.stem,
            kind=kind if kind is not None else header.get("kind", "data"),
            metadata=metadata if metadata is not None else header.get("metadata", {}),
        )
        object.__setattr__(trace, "_mmap_path", str(path))
        return trace

    @property
    def mmap_path(self) -> str | None:
        """Backing ``.bin`` file for memory-mapped traces, else ``None``."""
        return self.__dict__.get("_mmap_path")

    @property
    def digest(self) -> str:
        """Stable content digest of the reference stream.

        Hashes the address bytes plus the fields that change simulation
        or reporting results (``uops``, ``kind``) — but not ``name`` or
        ``metadata``, which are provenance: two traces with identical
        content share every derived artifact.  Computed once per
        instance and memoized (the address array is frozen).

        The hash streams over the addresses in bounded chunks — for a
        memory-mapped trace this reads the backing file in
        ``_DIGEST_CHUNK_BYTES`` buffers rather than touching every page
        of the mapping, so peak RSS stays O(chunk) no matter the trace
        size.  Byte-identical to hashing ``addresses.tobytes()`` in one
        shot (property-tested).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            h = hashlib.sha256(_DIGEST_VERSION)
            h.update(f"|uops={self.uops}|kind={self.kind}|".encode())
            path = self.mmap_path
            if path is not None and sys.byteorder == "little" and len(self):
                # The .bin file *is* the address bytes on little-endian
                # hosts; buffered reads go through the page cache, not
                # this process's resident set.
                with open(path, "rb", buffering=0) as fh:
                    while True:
                        buf = fh.read(_DIGEST_CHUNK_BYTES)
                        if not buf:
                            break
                        h.update(buf)
            else:
                step = _DIGEST_CHUNK_BYTES // 8
                for start in range(0, len(self.addresses), step):
                    h.update(self.addresses[start : start + step])
            cached = h.hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def block_addresses(self, block_size: int) -> np.ndarray:
        """Block addresses for the given block size (a power of two)."""
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError(f"block size must be a power of two, got {block_size}")
        import numpy as np

        shift = block_size.bit_length() - 1
        return self.addresses >> np.uint64(shift)

    def unique_blocks(self, block_size: int) -> int:
        """Number of distinct blocks touched (the block working set)."""
        import numpy as np

        return int(np.unique(self.block_addresses(block_size)).size)

    def footprint_bytes(self, block_size: int) -> int:
        """Touched memory, rounded to blocks."""
        return self.unique_blocks(block_size) * block_size

    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """Concatenate two traces in time order."""
        import numpy as np

        kind = self.kind if self.kind == other.kind else "unified"
        return Trace(
            np.concatenate([self.addresses, other.addresses]),
            uops=self.uops + other.uops,
            name=name or f"{self.name}+{other.name}",
            kind=kind,
            metadata={"parts": [self.name, other.name]},
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, kind={self.kind!r}, "
            f"refs={len(self)}, uops={self.uops})"
        )


class TraceDigestError(RuntimeError):
    """A deferred trace's addresses do not match its recorded digest."""


class DeferredTrace(Trace):
    """A :class:`Trace` whose addresses are produced on first use.

    Everything else (the content digest, length, uops, name, kind and
    metadata) is known up front, typically from a persistent record, so
    work keyed by the digest runs without producing the trace at all.
    The first read of :attr:`addresses` calls ``source.resolve()``.  The
    trace it returns must have the recorded digest and length, or
    :class:`TraceDigestError` is raised and no address is served.
    Inside :func:`~repro.pipeline.context.replay_only` that first read
    raises :class:`~repro.pipeline.context.NotCached` instead.
    """

    def __init__(
        self,
        source: Any,
        digest: str,
        length: int,
        uops: int,
        name: str,
        kind: str,
        metadata: dict[str, Any],
    ):
        if kind not in _VALID_KINDS:
            raise ValueError(f"kind must be one of {_VALID_KINDS}, got {kind!r}")
        for attr, value in (
            ("uops", uops),
            ("name", name),
            ("kind", kind),
            ("metadata", metadata),
            ("_source", source),
            ("_digest", digest),
            ("_length", length),
        ):
            object.__setattr__(self, attr, value)

    @property
    def addresses(self) -> np.ndarray:
        addresses = self.__dict__.get("_addresses")
        if addresses is None:
            # Only a pipeline context makes deferred traces, so this
            # import is already loaded.
            from repro.pipeline.context import REPLAY_ONLY, NotCached

            if REPLAY_ONLY.get():
                raise NotCached("trace", self._digest)
            trace = self._source.resolve()
            if trace.digest != self._digest or len(trace) != self._length:
                raise TraceDigestError(
                    f"trace {self.name!r} was recorded with digest "
                    f"{self._digest} and {self._length} references, but "
                    f"generating it gave {trace.digest} and {len(trace)}"
                )
            addresses = trace.addresses
            object.__setattr__(self, "_addresses", addresses)
        return addresses

    def __len__(self) -> int:
        return self._length

"""Trace construction and the uop/instruction-fetch model.

The paper traces ARM binaries with the PowerAnalyzer simulator, runs
the data and the instruction cache separately and reports misses per
K-uop.  We substitute a simple CPU model:

* every kernel operation is charged uops through :class:`TraceBuilder`
  (one per load or store, arithmetic via :meth:`TraceBuilder.alu`);
* instruction fetches come from a basic-block model: kernels declare
  code blocks with realistic instruction counts via :class:`CodeImage`,
  and executing a block fetches one 4-byte word per instruction.

A block execution is recorded as one ``(base, words)`` run, not as its
addresses.  :class:`WorkloadRun` keeps the data trace and the runs, and
builds the instruction trace from the runs on first access, so a
data-cache experiment never builds or holds an instruction stream.

This keeps both Table 2 denominators (uops) and the instruction-cache
address streams structurally faithful: loops re-fetch their block
addresses, calls jump between functions laid out in a text segment, and
conflicts arise exactly as they do between real code regions.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.trace.trace import Trace
from repro.workloads.layout import MemoryLayout

__all__ = ["TraceBuilder", "CodeImage", "WorkloadRun"]


def _frozen(addrs: np.ndarray) -> np.ndarray:
    """``addrs`` made read-only, so :class:`Trace` takes it without a copy."""
    addrs.setflags(write=False)
    return addrs


def _instruction_trace(runs: np.ndarray, uops: int, name: str) -> Trace:
    """The instruction trace that fetches ``(base, words)`` runs in order."""
    words = runs[:, 1].astype(np.intp)
    starts = np.cumsum(runs[:, 1]) - runs[:, 1]  # words fetched before each run
    # Fetch i of a run starting at fetch ``start`` reads base + 4 * (i - start).
    # uint64 arithmetic wraps, so a base below 4 * start is exact too.
    addrs = np.repeat(runs[:, 0] - 4 * starts, words)
    addrs += 4 * np.arange(len(addrs), dtype=np.uint64)
    return Trace(
        _frozen(addrs), uops=max(uops, len(addrs)), name=name, kind="instruction"
    )


class TraceBuilder:
    """Accumulates data references, instruction-fetch runs and uops.

    ``load(addr)`` and ``store(addr)`` record one data reference, which
    is also one uop; ``alu(count)`` charges uops with no reference.
    """

    def __init__(self, name: str):
        self.name = name
        self._data: list[int] = []
        self._runs: list[int] = []  # flat: base, words, base, words, ...
        self._charged = 0
        # A reference is a bare append; its uop is counted in ``uops``.
        self.load = self.store = self._data.append

    @property
    def uops(self) -> int:
        """Data references plus charged uops."""
        return len(self._data) + self._charged

    def alu(self, count: int = 1) -> None:
        """Charge arithmetic/branch uops with no memory reference."""
        self._charged += count

    def fetch_block(self, base: int, instructions: int, times: int = 1) -> None:
        """Fetch ``instructions`` sequential 4-byte words from ``base``,
        ``times`` times over (no uops charged)."""
        self._runs += (base, instructions) * times

    # -- extraction --------------------------------------------------------

    def data_trace(self) -> Trace:
        return Trace(
            _frozen(np.array(self._data, dtype=np.uint64)),
            uops=self.uops,
            name=self.name,
            kind="data",
        )

    def fetch_runs(self) -> np.ndarray:
        """The recorded runs as one read-only ``(n, 2)`` uint64 array."""
        return _frozen(np.array(self._runs, dtype=np.uint64).reshape(-1, 2))

    def instruction_trace(self) -> Trace:
        return _instruction_trace(self.fetch_runs(), self.uops, self.name)


class CodeImage:
    """Text-segment layout: named basic blocks with instruction counts.

    ``block(name, instructions)`` allocates the block in the text
    segment; ``run(builder, name)`` records its fetches and charges its
    uops.  Gaps between functions are modelled with ``padding`` so
    blocks land at realistic distances (library code far from the
    kernel's own loop, for instance).
    """

    def __init__(self, layout: MemoryLayout):
        self._layout = layout
        self._blocks: dict[str, tuple[int, int]] = {}  # name -> (base, words)

    def block(self, name: str, instructions: int, padding: int = 0) -> str:
        """Declare a basic block of ``instructions`` 4-byte words.

        ``padding`` inserts unused bytes *before* the block, modelling
        unrelated code between functions.
        """
        if instructions <= 0:
            raise ValueError(f"block {name!r} needs at least 1 instruction")
        if padding:
            self._layout.alloc(f"__pad_{name}", padding, segment="text", align=4)
        region = self._layout.alloc(name, 4 * instructions, segment="text", align=4)
        self._blocks[name] = (region.base, instructions)
        return name

    def address_of(self, name: str) -> int:
        return self._blocks[name][0]

    def instructions_of(self, name: str) -> int:
        return self._blocks[name][1]

    def run(self, builder: TraceBuilder, name: str, times: int = 1) -> None:
        """Execute a block ``times`` times: fetches + uops."""
        base, words = self._blocks[name]
        builder.fetch_block(base, words, times)
        builder.alu(words * times)


class WorkloadRun:
    """The product of running a workload kernel once.

    Holds the data trace and the instruction-fetch runs; the instruction
    trace is built from the runs on first access, under the run's name
    at that time.
    """

    def __init__(self, builder: TraceBuilder, parameters: dict | None = None):
        self.name = builder.name
        self.data = builder.data_trace()
        self._runs = builder.fetch_runs()
        self.parameters = parameters or {}

    @property
    def uops(self) -> int:
        return self.data.uops

    @cached_property
    def instructions(self) -> Trace:
        return _instruction_trace(self._runs, self.uops, self.name)

    def trace(self, kind: str) -> Trace:
        if kind == "data":
            return self.data
        if kind == "instruction":
            return self.instructions
        raise ValueError(f"kind must be 'data' or 'instruction', got {kind!r}")

    def __repr__(self) -> str:
        return (
            f"WorkloadRun({self.name!r}, data={len(self.data)} refs, "
            f"ifetch={int(self._runs[:, 1].sum())} refs, uops={self.uops})"
        )

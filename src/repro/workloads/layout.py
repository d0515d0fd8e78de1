"""Simulated memory layout for workload kernels.

Kernels run against symbolic memory: each array/table/buffer is a
:class:`Region` placed by a :class:`MemoryLayout` allocator.  Placement
mimics how an embedded toolchain lays out a program: distinct segments
for globals, heap and stack, with optional power-of-two alignment for
large arrays (the pattern that produces the pathological conflicts the
paper's hash functions remove).
"""

from __future__ import annotations

__all__ = ["Region", "MemoryLayout"]


class Region:
    """A contiguous allocation; produces element addresses."""

    __slots__ = ("name", "base", "size", "element_size", "num_elements")

    def __init__(self, name: str, base: int, size: int, element_size: int = 4):
        if base < 0 or size <= 0:
            raise ValueError(f"bad region {name}: base={base}, size={size}")
        if element_size <= 0:
            raise ValueError(f"element size must be positive, got {element_size}")
        self.name = name
        self.base = base
        self.size = size
        self.element_size = element_size
        # Stored, not derived: ``addr`` checks it on every kernel access.
        self.num_elements = size // element_size

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, index: int) -> int:
        """Byte address of element ``index`` (bounds-checked)."""
        if not 0 <= index < self.num_elements:
            raise IndexError(
                f"{self.name}[{index}] out of range (0..{self.num_elements - 1})"
            )
        return self.base + index * self.element_size

    def byte(self, offset: int) -> int:
        """Byte address at a raw byte offset."""
        if not 0 <= offset < self.size:
            raise IndexError(f"{self.name}+{offset} outside region of {self.size} bytes")
        return self.base + offset

    def addr2(self, row: int, col: int, row_elements: int) -> int:
        """Byte address of a 2-D element in row-major order."""
        return self.addr(row * row_elements + col)

    def __repr__(self) -> str:
        return (
            f"Region({self.name!r}, base={self.base:#x}, size={self.size}, "
            f"elem={self.element_size})"
        )


def _align_up(value: int, alignment: int) -> int:
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


class MemoryLayout:
    """Sequential allocator over segments of a flat address space.

    Default segments follow an embedded linker map for a *small* system
    (the paper targets the SA-110 with 16 hashed block-address bits, so
    the whole program lives within 2^16 4-byte blocks = 256 KB — as the
    paper's MediaBench/MiBench/PowerStone binaries do):

    * ``text``   at 0x04000 — code (used by the instruction model);
    * ``data``   at 0x14000 — globals and static tables;
    * ``heap``   at 0x24000 — dynamic allocations;
    * ``stack``  below 0x40000 — grows down.

    Segment overflow raises instead of silently aliasing regions.
    """

    SEGMENT_BASES = {
        "text": 0x0_4000,
        "data": 0x1_4000,
        "heap": 0x2_4000,
        "stack": 0x4_0000,
    }

    SEGMENT_LIMITS = {
        "text": 0x1_4000,
        "data": 0x2_4000,
        "heap": 0x3_F000,  # leave 4 KB headroom for the stack
    }

    STACK_LOWER_BOUND = 0x3_F000

    def __init__(self):
        self._cursor = {
            "text": self.SEGMENT_BASES["text"],
            "data": self.SEGMENT_BASES["data"],
            "heap": self.SEGMENT_BASES["heap"],
        }
        self._stack_cursor = self.SEGMENT_BASES["stack"]
        self.regions: dict[str, Region] = {}

    def alloc(
        self,
        name: str,
        size: int,
        segment: str = "data",
        align: int = 8,
        element_size: int = 4,
    ) -> Region:
        """Allocate a region in a growing segment.

        Large arrays are often page- or size-aligned in practice; pass
        ``align=4096`` (or the array size rounded up to a power of two)
        to reproduce the conflict-heavy layouts.
        """
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        if segment not in self._cursor:
            raise ValueError(
                f"segment must be one of {sorted(self._cursor)} (or use alloc_stack)"
            )
        base = _align_up(self._cursor[segment], align)
        if base + size > self.SEGMENT_LIMITS[segment]:
            raise ValueError(
                f"region {name!r} ({size} bytes at {base:#x}) overflows the "
                f"{segment} segment (limit {self.SEGMENT_LIMITS[segment]:#x})"
            )
        region = Region(name, base, size, element_size)
        self._cursor[segment] = base + size
        self.regions[name] = region
        return region

    def alloc_stack(self, name: str, size: int, element_size: int = 4) -> Region:
        """Allocate a stack frame (grows toward lower addresses)."""
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        new_cursor = (self._stack_cursor - size) & ~0x7
        if new_cursor < self.STACK_LOWER_BOUND:
            raise ValueError(
                f"stack frame {name!r} ({size} bytes) overflows the stack "
                f"segment (lower bound {self.STACK_LOWER_BOUND:#x})"
            )
        self._stack_cursor = new_cursor
        region = Region(name, self._stack_cursor, size, element_size)
        self.regions[name] = region
        return region

    def __getitem__(self, name: str) -> Region:
        return self.regions[name]

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{r.name}@{r.base:#x}" for r in self.regions.values()
        )
        return f"MemoryLayout({parts})"

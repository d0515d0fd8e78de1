"""Fig. 1 profiling oracles: the retired kernels :func:`profile_blocks` replaced.

* :class:`LRUStack` — the LRU stack of the paper's Fig. 1: blocks ordered
  by recency (top = most recent), and per access the blocks *above* the
  accessed block — everything touched since its previous access — up to
  a depth bound (the cache capacity, beyond which the miss is a
  capacity miss and is not profiled);
* :func:`profile_blocks_reference` — the literal transcription of Fig. 1
  over that stack;
* :func:`profile_blocks_slotted` — the per-access live-slot kernel that
  preceded the chunked one.

All three return what :func:`repro.profiling.conflict_profile.profile_blocks`
must match bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from repro.gf2.bitvec import mask
from repro.profiling.conflict_profile import ConflictProfile

_FLUSH_THRESHOLD = 1 << 22  # buffered conflict vectors before a bincount flush


class LRUStack:
    """An LRU stack of block addresses with bounded-depth lookup."""

    __slots__ = ("_stack",)

    def __init__(self):
        # Insertion-ordered dict; the *end* is the top of the stack.
        self._stack: OrderedDict[int, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._stack)

    def __contains__(self, block: int) -> bool:
        return block in self._stack

    def push(self, block: int) -> None:
        """Push a new block on top (or move an existing one to the top)."""
        if block in self._stack:
            self._stack.move_to_end(block)
        else:
            self._stack[block] = None

    def blocks_above(self, block: int, limit: int) -> list[int] | None:
        """Blocks more recent than ``block``, top-down, or ``None``.

        Returns ``None`` when ``block`` is deeper than ``limit`` (the
        profiler then classifies the access as a capacity miss).  The
        walk inspects at most ``limit + 1`` entries, bounding profiling
        cost by the cache capacity.

        Raises ``KeyError`` when ``block`` is not on the stack at all
        (callers must handle the compulsory case first).
        """
        if block not in self._stack:
            raise KeyError(f"block {block:#x} not on stack")
        above: list[int] = []
        for candidate in reversed(self._stack):
            if candidate == block:
                return above
            if len(above) >= limit:
                return None
            above.append(candidate)
        raise AssertionError("unreachable: membership checked above")

    def depth_of(self, block: int) -> int | None:
        """0-based depth from the top, or ``None`` if absent (unbounded walk)."""
        if block not in self._stack:
            return None
        for depth, candidate in enumerate(reversed(self._stack)):
            if candidate == block:
                return depth
        raise AssertionError("unreachable: membership checked above")

    def top_down(self) -> Iterator[int]:
        """Iterate blocks from most to least recently used."""
        return reversed(self._stack)

    def clear(self) -> None:
        self._stack.clear()


def profile_blocks_slotted(
    blocks: np.ndarray, capacity_blocks: int, n: int
) -> ConflictProfile:
    """Per-access live-slot implementation of the Fig. 1 pass.

    The previous production kernel, kept as a second oracle next to
    :func:`profile_blocks_reference`: each block's *current last
    position* owns a slot in a time-indexed array, and the blocks above
    ``x`` on the LRU stack are exactly the live slots between ``x``'s
    previous access and now, retrieved as one numpy slice per access.
    Identical results to :func:`profile_blocks`, which replaces the
    Python-rate access loop with chunked array passes.
    """
    if capacity_blocks < 1:
        raise ValueError(f"capacity must be >= 1 block, got {capacity_blocks}")
    blocks = np.ascontiguousarray(np.asarray(blocks), dtype=np.uint64)
    count = len(blocks)
    window = np.uint64(mask(n))
    counts = np.zeros(1 << n, dtype=np.int64)
    last_owner = np.zeros(count, dtype=np.uint64)  # slot t -> block
    live = np.zeros(count, dtype=bool)  # slot t is its block's latest
    last_position: dict[int, int] = {}
    chunks: list[np.ndarray] = []
    buffered = 0
    compulsory = 0
    capacity = 0
    beyond_window = 0

    def flush() -> None:
        nonlocal buffered
        if chunks:
            merged = np.concatenate(chunks)
            np.add(counts, np.bincount(merged, minlength=1 << n), out=counts)
            chunks.clear()
            buffered = 0

    for t in range(count):
        block = int(blocks[t])
        p = last_position.get(block)
        if p is None:
            compulsory += 1
        else:
            above = last_owner[p + 1 : t][live[p + 1 : t]]
            if len(above) >= capacity_blocks:
                capacity += 1
            elif len(above):
                vectors = np.bitwise_and(
                    np.bitwise_xor(above, np.uint64(block)), window
                ).astype(np.int64)
                zero = int(np.count_nonzero(vectors == 0))
                if zero:
                    beyond_window += zero
                    vectors = vectors[vectors != 0]
                if len(vectors):
                    chunks.append(vectors)
                    buffered += len(vectors)
                    if buffered >= _FLUSH_THRESHOLD:
                        flush()
            live[p] = False
        last_owner[t] = np.uint64(block)
        live[t] = True
        last_position[block] = t
    flush()
    return ConflictProfile(
        n,
        counts,
        compulsory=compulsory,
        capacity=capacity,
        accesses=count,
        beyond_window=beyond_window,
    )


def profile_blocks_reference(
    blocks: np.ndarray, capacity_blocks: int, n: int
) -> ConflictProfile:
    """Literal transcription of the paper's Fig. 1 with an LRU stack.

    Kept as the oracle for property tests of :func:`profile_blocks`.
    """
    if capacity_blocks < 1:
        raise ValueError(f"capacity must be >= 1 block, got {capacity_blocks}")
    window = mask(n)
    counts = np.zeros(1 << n, dtype=np.int64)
    stack = LRUStack()
    compulsory = 0
    capacity = 0
    beyond_window = 0

    for raw in np.asarray(blocks, dtype=np.uint64):
        block = int(raw)
        if block not in stack:
            compulsory += 1
            stack.push(block)
            continue
        above = stack.blocks_above(block, capacity_blocks - 1)
        if above is None:
            capacity += 1
        else:
            for other in above:
                vector = (block ^ other) & window
                if vector:
                    counts[vector] += 1
                else:
                    beyond_window += 1
        stack.push(block)
    return ConflictProfile(
        n,
        counts,
        compulsory=compulsory,
        capacity=capacity,
        accesses=len(blocks),
        beyond_window=beyond_window,
    )

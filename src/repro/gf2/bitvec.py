"""Bit-vector helpers for GF(2) arithmetic on machine integers.

Throughout the package a GF(2) vector of length ``n`` is stored as a
Python ``int`` (or a numpy integer array) whose bit ``i`` holds
coordinate ``i``.  Bit 0 is the least significant address bit, matching
the paper's convention ``a = a_{n-1} ... a_1 a_0``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "parity",
    "popcount",
    "mask",
    "bits_of",
    "from_bits",
    "parity_array",
    "dot",
    "weight_at_most",
]


def popcount(x: int) -> int:
    """Number of one bits in the non-negative integer ``x``."""
    if x < 0:
        raise ValueError(f"popcount requires a non-negative integer, got {x}")
    return x.bit_count()


def parity(x: int) -> int:
    """Parity (XOR of all bits) of the non-negative integer ``x``."""
    return popcount(x) & 1


def dot(x: int, y: int) -> int:
    """GF(2) inner product of two bit vectors: ``parity(x & y)``."""
    return parity(x & y)


def mask(n: int) -> int:
    """Bit mask with the ``n`` least significant bits set."""
    if n < 0:
        raise ValueError(f"mask width must be non-negative, got {n}")
    return (1 << n) - 1


def bits_of(x: int, n: int) -> list[int]:
    """Bits of ``x`` as a list ``[bit_0, bit_1, ..., bit_{n-1}]``."""
    return [(x >> i) & 1 for i in range(n)]


def from_bits(bits) -> int:
    """Inverse of :func:`bits_of`: pack ``[bit_0, bit_1, ...]`` into an int."""
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        value |= bit << i
    return value


def weight_at_most(x: int, k: int) -> bool:
    """True when ``x`` has at most ``k`` one bits."""
    return popcount(x) <= k


#: ``np.bitwise_count`` only exists on NumPy >= 2.0; without it
#: :func:`parity_array` folds each operand to 16 bits and reads one
#: 64 Ki-entry parity table, so everything also runs on NumPy 1.x.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

_parity16: np.ndarray | None = None


def _parity16_table() -> np.ndarray:
    """The fallback's table ``t`` with ``t[v] = parity(v)`` for 16-bit ``v``."""
    global _parity16
    if _parity16 is None:
        folded = np.arange(1 << 16, dtype=np.uint16)
        for shift in (8, 4, 2, 1):
            folded = folded ^ (folded >> np.uint16(shift))
        _parity16 = (folded & np.uint16(1)).astype(np.uint8)
    return _parity16


def parity_array(values: np.ndarray) -> np.ndarray:
    """Elementwise parity of an integer array of any shape and width.

    The package's one vectorized GF(2) parity kernel: index bit ``c`` of
    a block is ``parity_array(blocks & h_c)`` and Eq. 4's null-space
    test asks the same of every profiled vector.  Uses
    ``np.bitwise_count`` on NumPy >= 2.0; otherwise XOR-folds each
    operand's 16-bit limbs into one (parity is invariant under the
    fold) and gathers from a 64 Ki-entry table.

    Returns a ``uint8`` array of 0/1 parities with ``values``'s shape.
    """
    values = np.asarray(values)
    if values.dtype.kind != "u":
        values = values.astype(np.uint64)
    if _HAS_BITWISE_COUNT:
        counts = np.bitwise_count(values)  # uint8 for every input width
        counts &= np.uint8(1)
        return counts
    limbs = values.dtype.itemsize // 2
    if limbs > 1:
        # Fold to 16 bits: XOR the operand's 16-bit limbs together.
        halves = np.ascontiguousarray(values).view(np.uint16)
        halves = halves.reshape(values.shape + (limbs,))
        values = halves[..., 0] ^ halves[..., 1]
        for k in range(2, limbs):
            values ^= halves[..., k]
    return _parity16_table()[values]

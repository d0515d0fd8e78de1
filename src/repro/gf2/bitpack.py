"""Bit-packed GF(2) batch kernels: 64 vectors per machine word.

The estimator's hot loops evaluate ``parity(v & h)`` for *many* support
vectors ``v`` under *many* column masks ``h``.  Element-wise that costs
one masked :func:`~repro.gf2.bitvec.parity_array` per (vector, mask)
pair.  Packed, it collapses into word-wide XORs: store the support as
*bit planes* — plane ``i`` holds bit ``i`` of every vector, 64 vectors
per ``uint64`` word — and the parity row of a mask is simply the XOR of
its selected planes::

    parity(v & h) = XOR over set bits i of h of bit_i(v)

so one mask costs ``popcount(h)`` XOR passes over ``support/64`` words
instead of ``support`` masked popcounts.  Weighted reductions unpack a
packed parity row back to bytes once (:func:`weighted_popcount`).

Packing is not free — the plane transpose costs about as much as one
elementwise pass — so callers follow one rule, :func:`packing_pays`:
pack only windows wider than :data:`PACKED_MIN_BITS` bits, and pack a
one-shot batch only from :data:`PACKED_MIN_ELEMENTS` (masks x vectors)
cells.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_bit_planes",
    "pack_bits",
    "unpack_bits",
    "packed_parity_rows",
    "packing_pays",
    "weighted_popcount",
    "PACKED_MIN_BITS",
    "PACKED_MIN_ELEMENTS",
]

_WORD = 64

#: Windows of at most this many bits never pack: there the elementwise
#: :func:`~repro.gf2.bitvec.parity_array` pass beats the plane XORs
#: plus their unpack.
PACKED_MIN_BITS = 16

#: Smallest (masks x vectors) batch worth a one-shot plane transpose.
PACKED_MIN_ELEMENTS = 1 << 12


def packing_pays(n: int, cells: int | None = None) -> bool:
    """The packing rule: ``n``-bit windows above :data:`PACKED_MIN_BITS`.

    ``cells`` is the (masks x vectors) size of a one-shot batch, which
    must also reach :data:`PACKED_MIN_ELEMENTS`; leave it out for
    planes built once and reused (the amortized case).
    """
    if n <= PACKED_MIN_BITS:
        return False
    return cells is None or cells >= PACKED_MIN_ELEMENTS


def _words_for(count: int) -> int:
    return (count + _WORD - 1) // _WORD


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 vector into ``uint64`` words, 64 entries per word.

    Entry ``j`` lands in word ``j // 64``, bit ``j % 64`` (little-endian
    within the word), so packed representations of equal-length vectors
    are XOR-compatible.  The tail of the last word is zero.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    words = _words_for(len(bits))
    padded = np.zeros(words * 8, dtype=np.uint8)
    packed_bytes = np.packbits(bits, bitorder="little")
    padded[: len(packed_bytes)] = packed_bytes
    return padded.view(np.uint64)


def unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first ``count`` bits as uint8.

    Also accepts a 2-D ``(rows, words)`` array, unpacking each row.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    bits = np.unpackbits(words.view(np.uint8), axis=-1 if words.ndim > 1 else 0,
                         bitorder="little")
    return bits[..., :count]


def pack_bit_planes(vectors: np.ndarray, n: int) -> np.ndarray:
    """Bit-plane packing of a vector array: ``(n, ceil(len/64))`` words.

    Plane ``i`` is :func:`pack_bits` of bit ``i`` of every vector, so
    row XORs of the result evaluate GF(2) inner products against the
    whole array at once (:func:`packed_parity_rows`).
    """
    vectors = np.asarray(vectors)
    if vectors.dtype.kind != "u":
        vectors = vectors.astype(np.uint64)
    count = len(vectors)
    planes = np.zeros((n, _words_for(count)), dtype=np.uint64)
    if count == 0:
        return planes
    # One transpose of the (vectors x bits) matrix: unpack every vector
    # to its bits, flip to bit-major, re-pack each plane row.
    as_bytes = np.ascontiguousarray(vectors).view(np.uint8).reshape(count, -1)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    usable = min(n, bits.shape[1])
    bit_major = np.ascontiguousarray(bits[:, :usable].T)
    packed = np.packbits(bit_major, axis=1, bitorder="little")
    planes.view(np.uint8)[:usable, : packed.shape[1]] = packed
    return planes


def packed_parity_rows(planes: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Packed ``parity(v & mask)`` rows for every mask.

    ``planes`` is :func:`pack_bit_planes` output; the result row ``r``
    holds, bit-packed, the parity of every vector against
    ``masks[r]`` — the XOR of the planes selected by the mask's bits.
    """
    masks = np.asarray(masks)
    n, words = planes.shape
    out = np.zeros((len(masks), words), dtype=np.uint64)
    if len(masks) == 0:
        return out
    wide = masks.astype(np.uint64)
    for i in range(n):
        selected = (wide >> np.uint64(i)) & np.uint64(1) != 0
        if selected.any():
            out[selected] ^= planes[i]
    return out


def weighted_popcount(
    rows: np.ndarray, weights: np.ndarray, count: int | None = None
) -> np.ndarray:
    """Weight-sum of the set bits of each packed row.

    ``weights`` aligns with the *unpacked* bit positions (the vector
    order given to :func:`pack_bit_planes`); ``count`` defaults to
    ``len(weights)``.  Returns ``int64`` sums, one per row — the packed
    replacement for ``parities @ weights``.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint64))
    weights = np.asarray(weights)
    if count is None:
        count = len(weights)
    bits = unpack_bits(rows, count)
    return bits.astype(np.int64) @ weights[:count]

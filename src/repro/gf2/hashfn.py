"""XOR-based hash functions for cache set indexing (paper Sec. 2).

A hash function is an ``n x m`` binary matrix ``H``: set index bit ``c``
is the XOR of the address bits selected by column ``c`` of ``H``
(``s = a H`` over GF(2)).  :class:`XorHashFunction` stores the *column
masks* ``h_c`` (integers of ``n`` bits), which makes evaluation a parity
of ``addr & h_c`` and vectorizes cleanly over numpy arrays.

The class also derives the matching tag function.  The paper requires
tag and set index to be jointly bijective; for permutation-based
functions the conventional tag (address bits above the index) works
unchanged, and for general functions a bit-selecting tag always exists
(Sec. 4) — we select the pivot positions of the null space's canonical
basis, which restores injectivity by construction.

Constructing, comparing and serializing a function is plain integer
work; NumPy and the GF(2) matrix code load on first use of the methods
that need them, so a function rebuilt from a stored record costs no
import.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.gf2.matrix import GF2Matrix
    from repro.gf2.spaces import Subspace

__all__ = ["XorHashFunction"]


class XorHashFunction:
    """An ``n``-bit-to-``m``-bit XOR hash function.

    Parameters
    ----------
    n:
        Number of hashed (low-order) block-address bits.
    columns:
        ``m`` column masks; bit ``r`` of ``columns[c]`` says address bit
        ``r`` feeds the XOR gate of set index bit ``c``.
    """

    __slots__ = ("_n", "_columns", "_null_space", "_byte_tables")

    def __init__(self, n: int, columns: Iterable[int]):
        self._n = int(n)
        cols = tuple(int(c) for c in columns)
        if self._n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if not cols:
            raise ValueError("a hash function needs at least one column")
        if len(cols) > self._n:
            raise ValueError(
                f"more index bits ({len(cols)}) than hashed address bits ({self._n})"
            )
        limit = 1 << self._n
        for c, col in enumerate(cols):
            if col < 0 or col >= limit:
                raise ValueError(
                    f"column {c} mask {col:#x} does not fit in {self._n} bits"
                )
        self._columns = cols
        self._null_space: Subspace | None = None
        self._byte_tables: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def modulo(cls, n: int, m: int) -> "XorHashFunction":
        """The conventional index function: select the ``m`` low bits."""
        return cls(n, [1 << c for c in range(m)])

    @classmethod
    def bit_select(cls, n: int, selected_bits: Sequence[int]) -> "XorHashFunction":
        """A bit-selecting function choosing the given address bits.

        ``selected_bits[c]`` is the address bit wired to index bit ``c``.
        """
        seen = set()
        for b in selected_bits:
            if not 0 <= b < n:
                raise ValueError(f"selected bit {b} out of range [0, {n})")
            if b in seen:
                raise ValueError(f"selected bit {b} repeated; function would be rank-deficient")
            seen.add(b)
        return cls(n, [1 << b for b in selected_bits])

    @classmethod
    def from_matrix(cls, matrix: GF2Matrix) -> "XorHashFunction":
        """Build from the paper's ``n x m`` matrix representation."""
        return cls(matrix.nrows, [matrix.column(c) for c in range(matrix.ncols)])

    @classmethod
    def from_sigma(
        cls, n: int, m: int, sigma: Mapping[int, int | None] | Sequence[int | None]
    ) -> "XorHashFunction":
        """Build a 2-input permutation-based function (paper Sec. 5).

        Index bit ``c`` is ``a_c XOR a_{sigma[c]}`` with ``sigma[c]`` one
        of the ``n - m`` high-order bits, or just ``a_c`` when
        ``sigma[c]`` is ``None``.
        """
        if isinstance(sigma, Mapping):
            entries = [sigma.get(c) for c in range(m)]
        else:
            entries = list(sigma)
            if len(entries) != m:
                raise ValueError(f"sigma has {len(entries)} entries, expected {m}")
        columns = []
        for c, j in enumerate(entries):
            col = 1 << c
            if j is not None:
                if not m <= j < n:
                    raise ValueError(
                        f"sigma[{c}] = {j} must be a high-order bit in [{m}, {n})"
                    )
                col |= 1 << j
            columns.append(col)
        return cls(n, columns)

    @classmethod
    def random(
        cls,
        n: int,
        m: int,
        rng,
        max_fan_in: int | None = None,
        permutation: bool = False,
    ) -> "XorHashFunction":
        """A random full-rank hash function.

        ``max_fan_in`` bounds the number of inputs per XOR gate;
        ``permutation=True`` forces the permutation-based structure
        (identity on the low ``m`` rows).
        """
        from repro.gf2.bitvec import mask, popcount

        def draw() -> int:
            high = 1 << n
            if hasattr(rng, "integers"):
                return int(rng.integers(0, high))
            return rng.randrange(high)

        fan_in = max_fan_in if max_fan_in is not None else n
        if fan_in < 1:
            raise ValueError(f"max_fan_in must be >= 1, got {max_fan_in}")
        while True:
            columns = []
            for c in range(m):
                while True:
                    col = draw()
                    if permutation:
                        col = (col & ~mask(m)) | (1 << c)
                        if popcount(col) > fan_in:
                            # Trim high bits down to the budget.
                            extra = col & ~mask(m)
                            while popcount(extra) > fan_in - 1:
                                extra &= extra - 1
                            col = (1 << c) | extra
                    if popcount(col) == 0:
                        continue
                    if popcount(col) <= fan_in:
                        break
                columns.append(col)
            candidate = cls(n, columns)
            if candidate.is_full_rank:
                return candidate

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of hashed address bits."""
        return self._n

    @property
    def m(self) -> int:
        """Number of set index bits."""
        return len(self._columns)

    @property
    def columns(self) -> tuple[int, ...]:
        """Column masks ``h_c``."""
        return self._columns

    def matrix(self) -> GF2Matrix:
        """The paper's ``n x m`` matrix ``H`` (rows = address bits)."""
        from repro.gf2.matrix import GF2Matrix

        rows = []
        for r in range(self._n):
            row = 0
            for c, col in enumerate(self._columns):
                row |= ((col >> r) & 1) << c
            rows.append(row)
        return GF2Matrix(rows, self.m)

    @property
    def max_fan_in(self) -> int:
        """Largest number of inputs feeding any XOR gate."""
        return max(col.bit_count() for col in self._columns)

    @property
    def rank(self) -> int:
        """Rank of the column masks over GF(2)."""
        from repro.gf2.matrix import GF2Matrix

        return GF2Matrix(self._columns, self._n).rank()

    @property
    def is_full_rank(self) -> bool:
        """True when all ``m`` index bits are linearly independent."""
        return self.rank == self.m

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def apply(self, addr: int) -> int:
        """Set index of a single block address (only low ``n`` bits used)."""
        index = 0
        for c, col in enumerate(self._columns):
            index |= ((addr & col).bit_count() & 1) << c
        return index

    def __call__(self, addr: int) -> int:
        return self.apply(addr)

    def _index_byte_tables(self) -> np.ndarray:
        """Per-byte index tables: ``tables[j][v]`` is the full ``m``-bit
        set index the ``j``-th address byte ``v`` contributes.

        The hash is GF(2)-linear, so the index of an address is the XOR
        of its bytes' contributions — ``ceil(n/8)`` 256-entry gathers
        replace ``m`` full-width parity passes.  All tables come from
        one :func:`~repro.gf2.bitvec.parity_array` call over every
        (byte position, column, byte value) triple.
        """
        if self._byte_tables is None:
            import numpy as np

            from repro.gf2.bitvec import parity_array

            num_bytes = (self._n + 7) // 8
            col_bytes = np.array(
                [[(col >> (8 * j)) & 0xFF for col in self._columns]
                 for j in range(num_bytes)],
                dtype=np.uint8,
            )
            byte_values = np.arange(256, dtype=np.uint8)
            bits = parity_array(col_bytes[:, :, None] & byte_values)
            weights = np.uint32(1) << np.arange(self.m, dtype=np.uint32)
            self._byte_tables = np.bitwise_or.reduce(
                bits.astype(np.uint32) * weights[None, :, None], axis=1
            )
        return self._byte_tables

    def apply_array(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`apply` for a numpy array of block addresses."""
        import numpy as np

        from repro.gf2.bitvec import mask

        masked = np.bitwise_and(
            np.asarray(addrs).astype(np.uint64), np.uint64(mask(self._n))
        )
        # Byte j of every address sits at [..., j] whatever the host order.
        operand_bytes = np.ascontiguousarray(masked, dtype="<u8").view(np.uint8)
        operand_bytes = operand_bytes.reshape(masked.shape + (8,))
        out = np.zeros(masked.shape, dtype=np.uint32)
        for j, table in enumerate(self._index_byte_tables()):
            out ^= table[operand_bytes[..., j]]
        return out

    # ------------------------------------------------------------------
    # Null space and equivalence (paper Sec. 2)
    # ------------------------------------------------------------------

    def null_space(self) -> Subspace:
        """``N(H) = { x : x H = 0 }`` (paper Eq. 1).

        Two blocks ``x`` and ``y`` can conflict iff ``x ^ y`` lies in
        this subspace (Eq. 2).
        """
        if self._null_space is None:
            from repro.gf2.matrix import GF2Matrix
            from repro.gf2.spaces import Subspace

            kernel = GF2Matrix(self._columns, self._n).kernel()
            self._null_space = Subspace(kernel, self._n)
        return self._null_space

    def column_space(self) -> Subspace:
        """Span of the column masks (= ``N(H)^⊥``)."""
        from repro.gf2.spaces import Subspace

        return Subspace(self._columns, self._n)

    def canonical_key(self) -> tuple:
        """A hashable key identifying this function up to null space.

        Functions with equal keys map every pair of blocks to equal-or-
        different sets identically, hence have identical miss behaviour.
        """
        return (self._n, self.column_space().basis)

    def equivalent_to(self, other: "XorHashFunction") -> bool:
        """True when both functions have the same null space."""
        return self.canonical_key() == other.canonical_key()

    # ------------------------------------------------------------------
    # Families (paper Secs. 4-5)
    # ------------------------------------------------------------------

    @property
    def is_bit_selecting(self) -> bool:
        """True when every index bit is a plain address bit (fan-in 1)."""
        return all(col.bit_count() == 1 for col in self._columns)

    @property
    def is_permutation_based(self) -> bool:
        """Structural check: the low ``m`` rows of ``H`` form the identity.

        Equivalent to column ``c`` containing bit ``c`` and no other
        low-order bit.  This is the representation used by the cheap
        reconfigurable hardware of Sec. 5.
        """
        low = (1 << self.m) - 1
        return all((col & low) == (1 << c) for c, col in enumerate(self._columns))

    def has_permutation_null_space(self) -> bool:
        """Paper Eq. 5: ``N(H) ∩ span(e_0..e_{m-1}) = {0}``.

        Functions satisfying this admit a permutation-based
        representation (see :meth:`permutation_form`) and map every
        aligned run of ``2^m`` blocks conflict-free.
        """
        from repro.gf2.spaces import Subspace

        low_span = Subspace.span_of_units(range(self.m), self._n)
        return self.null_space().intersects_trivially(low_span)

    def permutation_form(self) -> "XorHashFunction":
        """Rewrite as an equivalent permutation-based function.

        Requires :meth:`has_permutation_null_space`; raises ``ValueError``
        otherwise.  The result has the same null space (hence identical
        miss behaviour) and identity low-order rows.
        """
        if not self.is_full_rank:
            raise ValueError("permutation form requires a full-rank function")
        if not self.has_permutation_null_space():
            raise ValueError(
                "null space intersects span(e_0..e_{m-1}); no permutation form exists"
            )
        m = self.m
        rows = list(self._columns)
        # Gauss-Jordan on the low m bit positions: afterwards row c has
        # low-order part exactly e_c.  Solvable because the restriction
        # of the column space to the low bits is bijective under Eq. 5.
        for c in range(m):
            bit = 1 << c
            pivot = None
            for r in range(c, m):
                if rows[r] & bit:
                    pivot = r
                    break
            assert pivot is not None, "Eq. 5 guarantees a pivot"
            rows[c], rows[pivot] = rows[pivot], rows[c]
            for r in range(m):
                if r != c and rows[r] & bit:
                    rows[r] ^= rows[c]
        result = XorHashFunction(self._n, rows)
        assert result.is_permutation_based
        return result

    def sigma(self) -> list[int | None]:
        """Extract the selector map of a 2-input permutation function.

        ``sigma[c]`` is the high-order bit XORed into index bit ``c``,
        or ``None`` when index bit ``c`` passes ``a_c`` through
        unhashed.  Raises ``ValueError`` for functions outside the
        2-input permutation family.
        """
        if not self.is_permutation_based:
            raise ValueError("sigma is only defined for permutation-based functions")
        if self.max_fan_in > 2:
            raise ValueError("sigma is only defined for fan-in <= 2")
        result: list[int | None] = []
        for c, col in enumerate(self._columns):
            high = col ^ (1 << c)
            result.append(high.bit_length() - 1 if high else None)
        return result

    # ------------------------------------------------------------------
    # Tag function (paper Sec. 4)
    # ------------------------------------------------------------------

    def tag_bit_positions(self) -> tuple[int, ...]:
        """Hashed-address bit positions selected by the tag function.

        The tag is always bit-selecting (paper Sec. 4).  We select the
        pivot positions of the null space's canonical basis: restricted
        to those ``n - m`` coordinates the null space projects
        injectively, which makes (tag, index) jointly bijective.  For
        permutation-based functions this yields exactly bits
        ``m .. n-1`` — the conventional tag.
        """
        if not self.is_full_rank:
            raise ValueError("tag function requires a full-rank index function")
        return tuple(sorted(self.null_space().pivots))

    def tag_of(self, addr: int) -> int:
        """Tag of a block address: selected low bits plus all bits >= n."""
        positions = self.tag_bit_positions()
        tag = 0
        for out_bit, pos in enumerate(positions):
            tag |= ((addr >> pos) & 1) << out_bit
        tag |= (addr >> self._n) << len(positions)
        return tag

    def tag_array(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`tag_of`."""
        import numpy as np

        addrs = np.asarray(addrs).astype(np.uint64)
        positions = self.tag_bit_positions()
        tag = np.zeros(addrs.shape, dtype=np.uint64)
        for out_bit, pos in enumerate(positions):
            bit = np.bitwise_and(addrs >> np.uint64(pos), np.uint64(1))
            tag |= bit << np.uint64(out_bit)
        tag |= (addrs >> np.uint64(self._n)) << np.uint64(len(positions))
        return tag

    # ------------------------------------------------------------------
    # Serialization and plumbing
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`)."""
        return {"n": self._n, "columns": list(self._columns)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "XorHashFunction":
        return cls(int(data["n"]), data["columns"])

    def with_column(self, c: int, new_mask: int) -> "XorHashFunction":
        """Copy with column ``c`` replaced (used by search neighbourhoods)."""
        if not 0 <= c < self.m:
            raise IndexError(f"column {c} out of range for m={self.m}")
        cols = list(self._columns)
        cols[c] = new_mask
        return XorHashFunction(self._n, cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XorHashFunction):
            return NotImplemented
        return self._n == other._n and self._columns == other._columns

    def __hash__(self) -> int:
        return hash((self._n, self._columns))

    def __repr__(self) -> str:
        cols = ", ".join(f"{c:#06x}" for c in self._columns)
        return f"XorHashFunction(n={self._n}, m={self.m}, columns=[{cols}])"

    def describe(self) -> str:
        """Human-readable per-index-bit formula, e.g. ``s0 = a0^a12``."""
        lines = []
        for c, col in enumerate(self._columns):
            inputs = [f"a{r}" for r in range(self._n) if (col >> r) & 1]
            rhs = " ^ ".join(inputs) if inputs else "0"
            lines.append(f"s{c} = {rhs}")
        return "\n".join(lines)
